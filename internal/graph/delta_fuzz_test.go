package graph

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadEdgeDelta fuzzes the KBD1 delta codec under the same contract
// as the graph codecs: arbitrary input must either decode into an
// in-limits delta that round-trips losslessly, or return an error —
// never panic, and never allocate proportionally to a hostile header.
func FuzzReadEdgeDelta(f *testing.F) {
	seed := &EdgeDelta{
		Add:      []Edge{{From: 0, To: 1, P: 0.25, PBoost: 0.5}, {From: 3, To: 2, P: 0, PBoost: 1}},
		Remove:   []EdgeKey{{From: 1, To: 0}},
		Reweight: []Edge{{From: 2, To: 4, P: 0.125, PBoost: 0.625}},
	}
	var valid bytes.Buffer
	if err := seed.WriteEdgeDelta(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-5]) // truncated mid-record
	f.Add(valid.Bytes()[:10])            // truncated header
	f.Add([]byte("KBD1"))
	f.Add([]byte("KBG1\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00")) // sibling magic
	f.Add([]byte("nope"))
	empty := make([]byte, 16)
	copy(empty, "KBD1")
	f.Add(empty)
	hostile := make([]byte, 16) // header demanding 4B ops with no payload
	copy(hostile, "KBD1")
	binary.LittleEndian.PutUint32(hostile[4:8], 0xFFFFFFFF)
	f.Add(hostile)
	overflow := make([]byte, 16) // three maxed counts: wraps int32 if summed narrow
	copy(overflow, "KBD1")
	for i := 4; i < 16; i++ {
		overflow[i] = 0xFF
	}
	f.Add(overflow)
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadEdgeDeltaLimited(bytes.NewReader(data), fuzzLimits)
		if err != nil {
			return
		}
		if d.Ops() > fuzzLimits.MaxEdges {
			t.Fatalf("decoded delta has %d ops, above limit %d", d.Ops(), fuzzLimits.MaxEdges)
		}
		var buf bytes.Buffer
		if err := d.WriteEdgeDelta(&buf); err != nil {
			t.Fatalf("re-encoding decoded delta: %v", err)
		}
		d2, err := ReadEdgeDeltaLimited(bytes.NewReader(buf.Bytes()), fuzzLimits)
		if err != nil {
			t.Fatalf("re-decoding re-encoded delta: %v", err)
		}
		if !deltasEqual(d2, d) {
			t.Fatalf("round trip changed the delta:\n got %+v\nwant %+v", d2, d)
		}
	})
}

// FuzzApplyDelta fuzzes applying a decoded delta, not just decoding
// it: on a fixed small graph, ApplyDelta must either fail and leave the
// graph unchanged, or return exactly the FromEdges rebuild of the
// post-delta edge list with the dirty masks the delta names.
func FuzzApplyDelta(f *testing.F) {
	g := edgeCaseGraph(f, 2)
	before, err := FromEdges(g.N(), g.Edges())
	if err != nil {
		f.Fatal(err)
	}
	for _, d := range []*EdgeDelta{
		{},
		{Add: []Edge{{From: 4, To: 1, P: 0.25, PBoost: 0.5}}, Remove: []EdgeKey{{From: 0, To: 3}}},
		{Reweight: []Edge{{From: 5, To: 2, P: 0.125, PBoost: 0.625}}, Add: []Edge{{From: 7, To: 6, P: 0, PBoost: 1}}},
		{Remove: []EdgeKey{{From: 5, To: 1}}},                                  // missing edge
		{Add: []Edge{{From: 2, To: 0, P: 0.5, PBoost: 0.5}}},                   // existing edge
		{Add: []Edge{{From: 1, To: 4, P: 0.5, PBoost: 0.5}, {From: 1, To: 4}}}, // duplicate op
	} {
		var buf bytes.Buffer
		if err := d.WriteEdgeDelta(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadEdgeDeltaLimited(bytes.NewReader(data), fuzzLimits)
		if err != nil {
			return
		}
		ng, eff, err := g.ApplyDelta(d)
		if err != nil {
			if ng != nil || eff != nil {
				t.Fatalf("error %v came with non-nil results", err)
			}
			graphsIdentical(t, g, before)
			return
		}
		want, err := FromEdges(g.N(), applyDeltaToEdgeList(g.Edges(), d))
		if err != nil {
			t.Fatalf("ApplyDelta accepted %+v, but FromEdges rejects the result: %v", d, err)
		}
		graphsIdentical(t, ng, want)
		checkDeltaEffect(t, g, ng, d, eff)
	})
}
