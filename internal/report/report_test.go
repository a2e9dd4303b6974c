package report

import (
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiment"
)

func sampleRows() []*experiment.Row {
	return []*experiment.Row{
		{Name: "C1P1", Cells: 240, Nets: 200, Cons: 8, LowerBoundPs: 1500,
			Con: experiment.Run{DelayPs: 1650, AreaMm2: 1.5, LengthMm: 180, CPUSec: 0.02},
			Unc: experiment.Run{DelayPs: 1900, AreaMm2: 1.5, LengthMm: 181, CPUSec: 0.01}},
		{Name: "C1P2", Cells: 240, Nets: 200, Cons: 8, LowerBoundPs: 1480,
			Con: experiment.Run{DelayPs: 1700, AreaMm2: 1.7, LengthMm: 240, CPUSec: 0.03},
			Unc: experiment.Run{DelayPs: 2280, AreaMm2: 1.7, LengthMm: 236, CPUSec: 0.02}},
	}
}

func TestTable1(t *testing.T) {
	s := Table1(sampleRows())
	for _, want := range []string{"Table 1", "C1P1", "P2", "cells", "consts."} {
		if !strings.Contains(s, want) {
			t.Errorf("Table1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable2HasBothBlocks(t *testing.T) {
	s := Table2(sampleRows())
	if !strings.Contains(s, "with constraints") || !strings.Contains(s, "without constraints") {
		t.Fatalf("Table2 missing blocks:\n%s", s)
	}
	if !strings.Contains(s, "1650.0") || !strings.Contains(s, "1900.0") {
		t.Fatalf("Table2 missing delays:\n%s", s)
	}
}

func TestTable3AndHeadline(t *testing.T) {
	rows := sampleRows()
	s := Table3(rows)
	if !strings.Contains(s, "1500.0") || !strings.Contains(s, "10.0") {
		t.Fatalf("Table3 content wrong:\n%s", s)
	}
	h := experiment.Summarize(rows)
	hs := HeadlineText(h, len(rows))
	if !strings.Contains(hs, "17.6%") {
		t.Fatalf("headline must cite the paper's 17.6%%:\n%s", hs)
	}
}

func TestFig1(t *testing.T) {
	ckt := circuit.SampleSmall()
	s, err := Fig1DelayGraph(ckt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig. 1", "b0.Z", "constraint P0"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig1 missing %q", want)
		}
	}
}

func TestFig3AndFig4(t *testing.T) {
	res, err := core.Route(circuit.SampleSmall(), engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	s := Fig3RoutingGraph(res.Ckt, res.Graphs[1])
	for _, want := range []string{"Fig. 3", "trunk", "corr"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig3 missing %q:\n%s", want, s)
		}
	}
	s4 := Fig4DensityChart(res.Dens, 1)
	if !strings.Contains(s4, "Fig. 4") || !strings.Contains(s4, "C_M=") {
		t.Errorf("Fig4 malformed:\n%s", s4)
	}
	// The chart must contain at least one density mark.
	if !strings.ContainsAny(s4, "#+") {
		t.Errorf("Fig4 chart empty:\n%s", s4)
	}
}

func TestMarkdownTables(t *testing.T) {
	s := Markdown(sampleRows())
	for _, want := range []string{
		"## Table 1", "## Table 2", "## Table 3",
		"| C1P1 |", "lower bound", "17.6%",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	// Markdown tables keep header/separator/row structure.
	if strings.Count(s, "|------") < 3 {
		t.Error("missing table separators")
	}
}

func TestCongestionTable(t *testing.T) {
	res, err := core.Route(circuit.SampleSmall(), engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	s := CongestionTable(res.Dens, []int{2, 3, 1})
	for _, want := range []string{"Channel congestion", "C_M", "total"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(s, " 6\n") { // 2+3+1
		t.Errorf("total wrong:\n%s", s)
	}
}
