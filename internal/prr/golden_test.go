package prr

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// goldenPRR pins sha256 digests of everything a PRR pool computes — its
// sketch log, arena, Stats, estimates and selections — plus a
// standalone generator run on one stream, per mode. The digests were
// recorded once and must never be edited: they anchor the sampler's
// exact draw sequence, which a rewrite of the phase-1 loop must keep.
// The graph mixes in p = 0 and p = 1 edges. Each digest must come out
// the same at worker counts 1, 2 and 7.
var goldenPRR = map[Mode]string{
	ModeFull: "7789d95c229f93c79ceb0376567d3b527083cbc9e33dd4a83d54a6acca84e468",
	ModeLB:   "05927a00342d01a66bf36ff0ac561b9c2dac1cf5934eb0c9ba4d13070a52b9e3",
}

// dumpPoolBits renders a pool's contents in text form.
func dumpPoolBits(p *Pool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "stats %+v\n", p.Stats())
	fmt.Fprintf(&b, "log kind %v\nexamined %v\nraw %v\ncomp %v\nexpStart %v\nexpItems %v\n",
		p.log.kind, p.log.examined, p.log.raw, p.log.comp, p.log.expStart, p.log.expItems)
	a := &p.arena
	fmt.Fprintf(&b, "refs %v\norig %v\noutStart %v\ninStart %v\noutTo %v\noutBoost %v\ninFrom %v\ninBoost %v\ncritical %v\n",
		a.refs, a.orig, a.outStart, a.inStart, a.outTo, a.outBoost, a.inFrom, a.inBoost, a.critical)
	return b.String()
}

// goldenPRRTranscript builds and queries one pool and runs one
// standalone generator, returning the text transcript.
func goldenPRRTranscript(t *testing.T, mode Mode, workers int) string {
	t.Helper()
	ctx := context.Background()
	g := testutil.EdgeCaseGraph(rng.New(2024), 60, 240, 0.3)
	seeds := []int32{0, 9, 31}
	var b strings.Builder
	pool, err := NewPool(g, seeds, 3, mode, 77, workers)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []int{150, 400} {
		if err := pool.ExtendContext(ctx, target); err != nil {
			t.Fatal(err)
		}
		b.WriteString(dumpPoolBits(pool))
	}
	boost := []int32{2, 5, 11, 17}
	fmt.Fprintf(&b, "mu %v\n", pool.EstimateMu(boost))
	if mode == ModeFull {
		d, err := pool.EstimateDelta(boost)
		if err != nil {
			t.Fatal(err)
		}
		set, cov, err := pool.selectDelta(context.Background(), 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "delta %v select %v %v\n", d, set, cov)
	} else {
		set, cov := pool.SelectAndCover(3)
		fmt.Fprintf(&b, "cover %v %v\n", set, cov)
	}

	gen, err := NewGenerator(g, seeds, 3, mode)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	for i := 0; i < 100; i++ {
		res := gen.Generate(r)
		fmt.Fprintf(&b, "gen %d %v %d crit %v raw %d comp %d examined %d exp %v\n", i, res.Kind, res.Root,
			res.Critical, res.RawEdges, res.CompressedEdges, res.EdgesExamined, gen.lastExpanded)
		if R := res.Graph; R != nil {
			fmt.Fprintf(&b, " graph %d %v %v %v %v %v %v %v\n", R.root, R.orig, R.outStart,
				R.outTo, R.outBoost, R.inStart, R.inFrom, R.inBoost)
		}
	}
	fmt.Fprintf(&b, "stream end %d\n", r.Uint64())
	return b.String()
}

func TestGoldenDigests(t *testing.T) {
	for _, mode := range []Mode{ModeFull, ModeLB} {
		for _, workers := range []int{1, 2, 7} {
			sum := sha256.Sum256([]byte(goldenPRRTranscript(t, mode, workers)))
			if got := fmt.Sprintf("%x", sum); got != goldenPRR[mode] {
				t.Errorf("mode %d workers %d: digest %s, want %s", mode, workers, got, goldenPRR[mode])
			}
		}
	}
}
