package render

import (
	"strings"
	"testing"

	"repro/internal/chanroute"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
)

func TestSVGWellFormedAndComplete(t *testing.T) {
	res, err := core.Route(circuit.SampleSmall(), engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := chanroute.Route(res.Ckt, res.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	s := SVG(res, cr)
	if !strings.HasPrefix(s, "<svg ") || !strings.HasSuffix(strings.TrimSpace(s), "</svg>") {
		t.Fatal("not a complete SVG document")
	}
	// One rect per cell plus chip outline plus row bands.
	rects := strings.Count(s, "<rect ")
	if want := 1 + res.Ckt.Rows + len(res.Ckt.Cells); rects != want {
		t.Fatalf("rects = %d, want %d", rects, want)
	}
	// Wiring present: at least one line per net.
	lines := strings.Count(s, "<line ")
	if lines < len(res.Ckt.Nets) {
		t.Fatalf("only %d lines for %d nets", lines, len(res.Ckt.Nets))
	}
	// Feedthrough verticals are drawn (SampleSmall always crosses rows).
	if !strings.Contains(s, "hsl(") {
		t.Fatal("no net colors emitted")
	}
	// Balanced quoting (cheap well-formedness proxy).
	if strings.Count(s, `"`)%2 != 0 {
		t.Fatal("unbalanced quotes")
	}
}

func TestNetColorsDiffer(t *testing.T) {
	seen := map[string]bool{}
	for n := 0; n < 12; n++ {
		c := netColor(n, 12)
		if seen[c] {
			t.Fatalf("color %s repeats within 12 nets", c)
		}
		seen[c] = true
	}
}
