package panicsafe

import (
	"errors"
	"fmt"
	"testing"
)

func TestDoNormalReturn(t *testing.T) {
	ran := false
	if err := Do(func() { ran = true }); err != nil || !ran {
		t.Fatalf("Do = %v (ran %v), want nil after running fn", err, ran)
	}
}

func TestDoRecoversPanic(t *testing.T) {
	val := fmt.Errorf("boom")
	err := Do(func() { panic(val) })
	var pe *Error
	if !errors.As(fmt.Errorf("shard 3: %w", err), &pe) {
		t.Fatalf("Do error %v (%T) is not reachable as *panicsafe.Error", err, err)
	}
	if pe.Val != val {
		t.Errorf("Val = %v, want the panic value %v", pe.Val, val)
	}
	if len(pe.Stack) == 0 {
		t.Error("Stack is empty")
	}
	if pe.Error() != "recovered panic: boom" {
		t.Errorf("Error() = %q", pe.Error())
	}
}
