package main

import (
	"maps"
	"testing"
)

// TestRunsRepeat pins the same-work rule: two short runs of a workload
// with one seed send the same request sequence and leave the same work
// fingerprint, and another seed sends a different sequence with the
// same class shares.
func TestRunsRepeat(t *testing.T) {
	cfg := config{seconds: 1, setupReps: 1}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := mustExecute(t, w, 7, cfg)
			b := mustExecute(t, w, 7, cfg)
			if a.info.Sequence != b.info.Sequence {
				t.Errorf("seed 7 sent two different request sequences")
			}
			if !maps.Equal(a.info.Fingerprint, b.info.Fingerprint) {
				t.Errorf("seed 7 left two fingerprints:\n%v\n%v", a.info.Fingerprint, b.info.Fingerprint)
			}
			p7, err := newPlan(w, 7, cfg.seconds, a.info.Clients)
			if err != nil {
				t.Fatal(err)
			}
			p8, err := newPlan(w, 8, cfg.seconds, a.info.Clients)
			if err != nil {
				t.Fatal(err)
			}
			if p7.digest() == p8.digest() {
				t.Errorf("seeds 7 and 8 send the same request sequence")
			}
			if got := p8.classCounts(); !maps.Equal(got, a.info.Classes) {
				t.Errorf("seed 8 class shares %v, seed 7 %v", got, a.info.Classes)
			}
		})
	}
}

func mustExecute(t *testing.T, w *workload, seed uint64, cfg config) *report {
	t.Helper()
	rep, err := execute(w, seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.res.Correct {
		t.Fatalf("run failed its checks: %v", rep.info.Failures)
	}
	return rep
}
