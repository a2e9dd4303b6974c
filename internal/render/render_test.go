package render

import (
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
)

func TestLayoutDrawsEverything(t *testing.T) {
	res, err := core.Route(circuit.SampleSmall(), engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	s := Layout(res)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	// Header + (channels + rows) lines: rows+1 channels and rows rows.
	want := 1 + (res.Ckt.Rows + 1) + res.Ckt.Rows
	if len(lines) != want {
		t.Fatalf("layout has %d lines, want %d:\n%s", len(lines), want, s)
	}
	if !strings.Contains(s, "#") {
		t.Error("no logic cells drawn")
	}
	if !strings.Contains(s, "F") {
		t.Error("no feed cells drawn")
	}
	if !strings.Contains(s, "|") {
		t.Error("no used feedthroughs drawn")
	}
	if !strings.Contains(s, "C_M=") {
		t.Error("no channel stats drawn")
	}
	// Row lines cover the full chip width.
	for _, line := range lines[1:] {
		if strings.HasPrefix(line, "row") {
			body := strings.SplitN(line, " ", 2)[1]
			if len(body) != res.Ckt.Cols {
				t.Fatalf("row line width %d, want %d", len(body), res.Ckt.Cols)
			}
		}
	}
}

func TestDensChar(t *testing.T) {
	cases := []struct {
		in   int
		want byte
	}{{-1, ' '}, {0, ' '}, {5, '5'}, {9, '9'}, {10, 'a'}, {35, 'z'}, {36, '*'}, {99, '*'}}
	for _, c := range cases {
		if got := densChar(c.in); got != c.want {
			t.Errorf("densChar(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}
