package faults

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestDisarmedIsNil(t *testing.T) {
	Reset()
	if Enabled() {
		t.Fatal("gate on with empty table")
	}
	if err := CheckContext(context.Background(), PoolBuildShard); err != nil {
		t.Fatalf("disarmed Check returned %v", err)
	}
}

func TestErrorModeAndCount(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Enable(PersistWrite, Fault{Mode: "error", Count: 2})
	for i := 0; i < 2; i++ {
		if err := CheckContext(context.Background(), PersistWrite); !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d: got %v, want ErrInjected", i, err)
		}
	}
	if err := CheckContext(context.Background(), PersistWrite); err != nil {
		t.Fatalf("after count exhausted: got %v", err)
	}
	if Enabled() {
		t.Fatal("gate still on after last armed point expired")
	}
}

func TestCustomError(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	sentinel := errors.New("boom")
	Enable(Repair, Fault{Mode: "error", Err: sentinel})
	if err := CheckContext(context.Background(), Repair); !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
}

func TestPanicMode(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Enable(SnapshotLoad, Fault{Mode: "panic"})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = CheckContext(context.Background(), SnapshotLoad)
}

func TestLatencyHonorsContext(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Enable(PoolBuildShard, Fault{Mode: "latency", Delay: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := CheckContext(ctx, PoolBuildShard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("latency injection ignored cancellation")
	}
}

func TestInitFromEnv(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	if err := InitFromEnv("pool.build.shard=latency:1ms;persist.write=error#1"); err != nil {
		t.Fatal(err)
	}
	if err := CheckContext(context.Background(), PoolBuildShard); err != nil {
		t.Fatalf("latency point errored: %v", err)
	}
	if err := CheckContext(context.Background(), PersistWrite); !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	if err := CheckContext(context.Background(), PersistWrite); err != nil {
		t.Fatalf("count=1 point fired twice: %v", err)
	}
	for _, bad := range []string{"nope", "p=frob", "p=latency:xx", "p=error#0"} {
		Reset()
		if err := InitFromEnv(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}
