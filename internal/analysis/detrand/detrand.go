// Package detrand flags sources of nondeterminism inside the
// determinism-critical packages: every sampling component of this
// repository promises bit-identical results for a fixed seed at any
// worker count, a guarantee that a single stray global math/rand call,
// wall-clock read, or map-iteration-ordered result silently destroys.
//
// Three bug classes are reported:
//
//  1. Calls through the global math/rand (or math/rand/v2) generator.
//     All randomness must flow through an explicitly seeded
//     internal/rng.Source.
//  2. time.Now / time.Since. Wall-clock reads have no place in a
//     deterministic sampling path (timing belongs to callers like the
//     engine, which are out of scope).
//  3. `for range` over a map whose body writes loop-derived values into
//     an ordered result (append to a slice, or indexed slice store).
//     Map iteration order is randomized per run, so the result order —
//     and everything downstream, such as which PRR-graph a worker
//     generates first — changes between identical invocations. Extract
//     the keys and sort them first.
//
// The analyzer itself is scope-free; the kboostvet driver (and the
// self-clean test) restrict it to the packages listed in DefaultScope.
package detrand

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/kboost/kboost/internal/analysis/framework"
)

// DefaultScope lists the module-relative packages whose code must be
// deterministic for a fixed seed at any worker count. To put a new
// package under detrand (for example a new diffusion model), add its
// module-relative import path here; kboostvet and the self-clean test
// pick the change up automatically.
var DefaultScope = []string{
	"internal/prr",
	"internal/lt",
	"internal/model/profile",
	"internal/model/sir",
	"internal/model/kthresh",
	"internal/maxcover",
	"internal/diffusion",
	"internal/rng",
	"internal/rrset",
	"internal/shard",
}

// InScope reports whether a module-relative package path is
// determinism-critical.
func InScope(rel string) bool {
	for _, s := range DefaultScope {
		if rel == s {
			return true
		}
	}
	return false
}

// Analyzer is the detrand pass.
var Analyzer = &framework.Analyzer{
	Name: "detrand",
	Doc: "flag global math/rand calls, wall-clock reads, and map-ordered " +
		"result construction in determinism-critical packages",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		var fn *ast.FuncDecl
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				fn = n
			case *ast.SelectorExpr:
				checkSelector(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n, fn)
			}
			return true
		})
	}
	return nil
}

// checkSelector flags uses of global math/rand functions and of
// time.Now / time.Since. References count, not just calls: storing
// rand.Intn in a variable is as nondeterministic as calling it.
func checkSelector(pass *framework.Pass, sel *ast.SelectorExpr) {
	// Only package-qualified selectors: rand.Intn, time.Now. Method
	// values on a *rand.Rand are fine (the receiver carries the seed).
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.PkgName); !ok {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		// Constructors (New, NewSource, NewPCG, ...) build explicitly
		// seeded local generators and never touch the global source.
		if strings.HasPrefix(obj.Name(), "New") {
			return
		}
		pass.Reportf(sel.Pos(),
			"global math/rand.%s in a determinism-critical package; use an explicitly seeded internal/rng.Source",
			obj.Name())
	case "time":
		if obj.Name() == "Now" || obj.Name() == "Since" {
			pass.Reportf(sel.Pos(),
				"wall-clock read time.%s in a determinism-critical package; timing belongs to the caller",
				obj.Name())
		}
	}
}

// checkMapRange flags `for k, v := range m` over a map when the body
// writes a value derived from the loop variables into an ordered
// collection declared outside the loop.
func checkMapRange(pass *framework.Pass, rng *ast.RangeStmt, fn *ast.FuncDecl) {
	t := pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	loopVars := make(map[types.Object]bool)
	for _, expr := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := expr.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				loopVars[obj] = true
			}
		}
	}
	if len(loopVars) == 0 {
		return
	}
	usesLoopVar := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && loopVars[pass.TypesInfo.ObjectOf(id)] {
				found = true
			}
			return !found
		})
		return found
	}
	declaredOutside := func(e ast.Expr) bool {
		root := e
		for {
			if ix, ok := root.(*ast.IndexExpr); ok {
				root = ix.X
				continue
			}
			break
		}
		id, ok := root.(*ast.Ident)
		if !ok {
			// Selector (struct field) or similar: not loop-local.
			return true
		}
		obj := pass.TypesInfo.ObjectOf(id)
		return obj == nil || obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range asg.Lhs {
			if i >= len(asg.Rhs) {
				break
			}
			rhs := asg.Rhs[i]
			// out = append(out, ...loop-derived...). The blessed
			// collect-then-sort pattern is exempt: appending keys to a
			// slice that is sorted later in the same function is exactly
			// how map order is laundered away.
			if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(pass, call) {
				if !declaredOutside(lhs) {
					continue
				}
				if id, ok := lhs.(*ast.Ident); ok && sortedLater(pass, fn, pass.TypesInfo.ObjectOf(id)) {
					continue
				}
				for _, arg := range call.Args[1:] {
					if usesLoopVar(arg) {
						pass.Reportf(asg.Pos(),
							"append of a map-iteration value to %q, which outlives the loop: map order is randomized, so the result order is nondeterministic; collect and sort the keys first",
							framework.ExprString(lhs))
						break
					}
				}
				continue
			}
			// out[i] = ...loop-derived... where out is an ordered
			// (slice/array) collection from outside the loop.
			if ix, ok := lhs.(*ast.IndexExpr); ok {
				bt := pass.TypesInfo.Types[ix.X].Type
				if bt == nil {
					continue
				}
				switch bt.Underlying().(type) {
				case *types.Slice, *types.Array, *types.Pointer:
				default:
					continue // map or channel targets are order-free
				}
				if declaredOutside(ix.X) && (usesLoopVar(rhs) || usesLoopVar(ix.Index)) {
					pass.Reportf(asg.Pos(),
						"indexed store of a map-iteration value into %q, which outlives the loop: map order is randomized, so the filled positions are nondeterministic; collect and sort the keys first",
						framework.ExprString(ix.X))
				}
			}
		}
		return true
	})
}

// sortedLater reports whether obj is passed to a sort.* or slices.*
// call anywhere in the enclosing function — the signature of the
// collect-and-sort idiom that neutralizes map iteration order.
func sortedLater(pass *framework.Pass, fn *ast.FuncDecl, obj types.Object) bool {
	if fn == nil || fn.Body == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return !found
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return !found
		}
		pkg, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
		if !ok {
			return !found
		}
		path := pkg.Imported().Path()
		if path != "sort" && path != "slices" {
			return !found
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

func isBuiltinAppend(pass *framework.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) < 2 {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}
