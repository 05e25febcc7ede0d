package detrand_test

import (
	"testing"

	"github.com/kboost/kboost/internal/analysis/analysistest"
	"github.com/kboost/kboost/internal/analysis/detrand"
)

func TestDetrand(t *testing.T) {
	analysistest.Run(t, "testdata", detrand.Analyzer, "a")
}

func TestInScope(t *testing.T) {
	// Every pooled model promises bit-identical results for a fixed
	// (seed, workers), as do the kernel they share, the rrset sampler
	// and the fan-out that splits their work.
	for _, rel := range []string{"internal/lt", "internal/model/profile", "internal/model/sir", "internal/model/kthresh", "internal/rrset", "internal/shard"} {
		if !detrand.InScope(rel) {
			t.Errorf("InScope(%q) = false, want true", rel)
		}
	}
	for _, rel := range detrand.DefaultScope {
		if !detrand.InScope(rel) {
			t.Errorf("InScope(%q) = false, want true", rel)
		}
	}
	for _, rel := range []string{"internal/engine", "internal/model", "cmd/kboostd", ""} {
		if detrand.InScope(rel) {
			t.Errorf("InScope(%q) = true, want false", rel)
		}
	}
}
