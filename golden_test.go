package repro_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/report"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden table files")

// TestGoldenTables pins the reproduction's deterministic numbers (Tables
// 1 and 3; Table 2 contains wall-clock CPU and is excluded). Any change to
// the generator, router or evaluation that moves these numbers must be
// deliberate: re-bless with `go test -run TestGoldenTables -update`.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in -short mode")
	}
	rows, err := experiment.RunAll(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := report.Table1(rows) + "\n" + report.Table3(rows)
	path := filepath.Join("testdata", "golden_tables.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("tables changed; if intentional, re-bless with -update.\n--- got\n%s\n--- want\n%s",
			got, string(want))
	}
	// The headline must stay in the paper's neighbourhood.
	h := experiment.Summarize(rows)
	if h.AvgReductionOfLB < 10 || h.AvgReductionOfLB > 25 {
		t.Errorf("average reduction %.1f%% drifted out of the paper's neighbourhood (17.6%%)", h.AvgReductionOfLB)
	}
	if !strings.Contains(got, "C3P1") {
		t.Error("golden content incomplete")
	}
}
