package steiner

import (
	"testing"

	"repro/internal/circuit"
)

func TestEstimateTargetPositive(t *testing.T) {
	if got := demandTarget(circuit.SampleSmall()); got < 1 {
		t.Fatalf("target %d", got)
	}
}
