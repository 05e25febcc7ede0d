package rrset

import (
	"context"
	"testing"

	"github.com/kboost/kboost/internal/dataset"
)

// BenchmarkSelectSeedsCold measures one /v1/seeds-shaped request: a
// fresh 1,000-set IMM pool (k=5, two workers) on the digg stand-in at
// scale 0.02 (0.005 under -short), sampled and selected from scratch
// every iteration. Its allocs/op and B/op count the pool's per-set
// storage.
func BenchmarkSelectSeedsCold(b *testing.B) {
	scale := 0.02
	if testing.Short() {
		scale = 0.005
	}
	g, err := dataset.Digg.Generate(scale, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{Seed: 3, Workers: 2, MaxSamples: 1000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SelectSeedsContext(context.Background(), g, 5, opt); err != nil {
			b.Fatal(err)
		}
	}
}
