package dgraph

import (
	"errors"
	"testing"

	"repro/internal/circuit"
)

// TestGraphTooLarge pins the int32 overflow guard: a circuit whose
// terminal or arc count exceeds the index capacity must be rejected with
// ErrGraphTooLarge instead of silently truncating indices. The limit is
// lowered via the package-level override so the test does not need a
// >2^31-element circuit.
func TestGraphTooLarge(t *testing.T) {
	ckt := circuit.SampleSmall()
	if _, err := New(ckt); err != nil {
		t.Fatalf("sample under the real limit: %v", err)
	}

	defer func(old int) { maxGraphInts = old }(maxGraphInts)
	maxGraphInts = 1
	_, err := New(ckt)
	if err == nil {
		t.Fatal("New accepted a graph over the synthetic index limit")
	}
	if !errors.Is(err, ErrGraphTooLarge) {
		t.Fatalf("err = %v, want ErrGraphTooLarge", err)
	}
}
