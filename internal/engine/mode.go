package engine

// This file is the engine's diffusion-mode registry. Every query names
// a mode; resolveSpec canonicalizes it ("" and "full" are "ic"),
// validates the per-model knobs, and returns a modeSpec carrying the
// mode's pool family. Two families exist behind one registry:
//
//   - the PRR family ("ic" and its lower-bound variant "lb"), whose
//     k-dependent pools keep the approximation guarantees of
//     internal/core, and
//   - the pooled simulation family (every internal/model Model: "lt",
//     "sir", "kthresh"), written once against model.Pool.
//
// Both are served by the one acquire path in acquire.go; the spec only
// says how to build a fresh pool of its family.
//
// The registry is also where the optional content-properties modifier
// lives: a request carrying Content computes against a derived graph
// (base probabilities mapped through the virality/credibility
// transform) whose cache keys embed the content tag — distinct content
// never shares sampled worlds or calibrations.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model"
	"github.com/kboost/kboost/internal/prr"
)

// modeSpec is one resolved (mode, params, content) triple.
type modeSpec struct {
	// name is the canonical mode: "ic", "lb", or a model.Names() entry.
	name string
	// prrMode is the PRR materialization mode; meaningful iff sim is nil.
	prrMode prr.Mode
	// sim is the pooled simulation model serving this mode; nil for the
	// PRR family.
	sim model.Model
	// content is the normalized transmission modifier (identity when the
	// request carried none).
	content model.Content
	// build samples a fresh pool of the mode's family (buildPRR or
	// buildSim, acquire.go).
	build func(ctx context.Context, spec *modeSpec, g *graph.Graph, seeds []int32, s sizing) (pool, error)
}

// errUnknownMode is the one unknown-mode error every endpoint returns,
// so clients see the same catalog whether they typo a boost, estimate
// or seeds request.
func errUnknownMode(mode string) error {
	return fmt.Errorf("engine: unknown mode %q (want \"ic\", \"lb\", \"lt\", \"sir\" or \"kthresh\")", mode)
}

// resolveSpec canonicalizes and validates a request's mode, per-model
// params and content modifier. It owns the unified unknown-mode error;
// knob misuse (recovery outside "sir", threshold outside "kthresh",
// out-of-range content scalars) is rejected here, before any cache or
// counter is touched.
func resolveSpec(mode string, p model.Params, content *model.Content) (*modeSpec, error) {
	spec := &modeSpec{}
	c := model.Content{}
	if content != nil {
		c = *content
	}
	c, err := c.Normalize()
	if err != nil {
		return nil, err
	}
	spec.content = c
	switch mode {
	case "", "full", "ic":
		spec.name, spec.prrMode, spec.build = "ic", prr.ModeFull, buildPRR
	case "lb":
		spec.name, spec.prrMode, spec.build = "lb", prr.ModeLB, buildPRR
	default:
		m, err := model.New(mode, p)
		if err != nil {
			known := false
			for _, n := range model.Names() {
				known = known || n == mode
			}
			if !known {
				return nil, errUnknownMode(mode)
			}
			return nil, fmt.Errorf("engine: %w", err)
		}
		spec.name, spec.sim, spec.build = mode, m, buildSim
		return spec, nil
	}
	// The PRR modes take no model params; rejecting them here keeps the
	// same knob-misuse contract model.New enforces for the sim family.
	if p.Recovery != 0 {
		return nil, fmt.Errorf("engine: recovery only applies to mode \"sir\" (got mode %q)", spec.name)
	}
	if p.Threshold != 0 {
		return nil, fmt.Errorf("engine: threshold only applies to mode \"kthresh\" (got mode %q)", spec.name)
	}
	return spec, nil
}

// tag is the pool-cache mode tag: the historical "m0"/"m1" for the PRR
// materialization modes, the model's parameterized key for the sim
// family, plus the content fragment when the request carries a
// non-identity modifier — so "sir:r=0.25" and "sir:r=0.5" pools, or the
// same model under different content, can never be confused.
func (s *modeSpec) tag() string {
	t := "m0"
	if s.sim != nil {
		t = s.sim.Key()
	} else if s.prrMode == prr.ModeLB {
		t = "m1"
	}
	if ck := s.content.Key(); ck != "" {
		t += "|" + ck
	}
	return t
}

// calID keys tier calibrations: the same parameterization that keys
// pools, except the PRR modes share the "ic" calibration (both estimate
// under plain IC — "lb" only changes selection).
func (s *modeSpec) calID() string {
	t := "ic"
	if s.sim != nil {
		t = s.sim.Key()
	}
	if ck := s.content.Key(); ck != "" {
		t += "|" + ck
	}
	return t
}

// tier0Norms resolves the closed-form tier's normalizers for this mode
// on g: raw edge probabilities for IC, the model's choice for the sim
// family — which may decline tier 0 outright (ok false) when its
// transmission semantics are inexpressible as per-node normalized edge
// probabilities.
func (s *modeSpec) tier0Norms(g *graph.Graph) (norm []float64, ok bool) {
	if s.sim == nil {
		return nil, true
	}
	return s.sim.Tier0Norms(g)
}

// reqGraph resolves a request's effective graph lazily: the registered
// snapshot itself for identity content, the content-derived copy (built
// at most once per request) otherwise. Laziness matters on the warm
// path — a result-cache hit never pays the O(M) derive.
type reqGraph struct {
	base    *graph.Graph
	content model.Content

	once    sync.Once
	derived *graph.Graph
	err     error
}

func (r *reqGraph) get() (*graph.Graph, error) {
	r.once.Do(func() {
		r.derived, r.err = r.content.Apply(r.base)
	})
	return r.derived, r.err
}

// simCounters is one simulation mode's query/cache counter block —
// the per-mode breakdown behind Stats.SimModes. All fields are atomic:
// the warm path bumps them without any lock.
type simCounters struct {
	boostQueries    atomic.Int64
	estimateQueries atomic.Int64
	poolHits        atomic.Int64
	poolMisses      atomic.Int64
	poolExtensions  atomic.Int64
	resultHits      atomic.Int64
	profiles        atomic.Int64
}

// SimModeStats is the exported snapshot of one simulation mode's
// counters, keyed by canonical mode name in Stats.SimModes.
type SimModeStats struct {
	BoostQueries    int64 `json:"boost_queries"`
	EstimateQueries int64 `json:"estimate_queries"`
	PoolHits        int64 `json:"pool_hits"`
	PoolMisses      int64 `json:"pool_misses"`
	PoolExtensions  int64 `json:"pool_extensions"`
	ResultHits      int64 `json:"result_hits"`
	Profiles        int64 `json:"profiles"`
}

// simCtr returns (creating on first use) the counter block for a
// simulation mode.
func (e *Engine) simCtr(name string) *simCounters {
	e.simCtrMu.Lock()
	defer e.simCtrMu.Unlock()
	sc := e.simCtrs[name]
	if sc == nil {
		sc = &simCounters{}
		e.simCtrs[name] = sc
	}
	return sc
}
