package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture loads one package under testdata/src. The fixtures reuse
// deterministic package names (core, dgraph, ...) so the
// DeterministicOnly analyzers run on them; go list only sees them through
// the explicit directory pattern, never through ./... sweeps.
func loadFixture(t *testing.T, name string) []*Package {
	t.Helper()
	pkgs, err := Load(".", "./testdata/src/"+name)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: loaded %d packages, want 1", name, len(pkgs))
	}
	return pkgs
}

// want is one `// want "regex"` expectation parsed from a fixture file.
type want struct {
	file string // base name
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

// collectWants parses the expectations of every .go file in a fixture
// directory. The regex in the comment must match the diagnostic message
// reported on that same line.
func collectWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRE.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regex %q: %v", e.Name(), line, m[1], err)
			}
			wants = append(wants, &want{file: e.Name(), line: line, re: re})
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

// runFixture applies the full suite to one fixture package.
func runFixture(t *testing.T, name string) []Diagnostic {
	t.Helper()
	return Run(loadFixture(t, name), Analyzers())
}

// TestFixtures runs the full suite over each analyzer's golden fixture
// and requires an exact match between the reported diagnostics and the
// `// want` expectations: every diagnostic must be expected, every
// expectation must fire, and the clean declarations must stay silent.
func TestFixtures(t *testing.T) {
	for _, name := range []string{"maporder", "clockuse", "locks"} {
		t.Run(name, func(t *testing.T) {
			diags := runFixture(t, name)
			wants := collectWants(t, filepath.Join("testdata", "src", name))
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no // want expectations", name)
			}
		outer:
			for _, d := range diags {
				for _, w := range wants {
					if !w.hit && filepath.Base(d.Pos.Filename) == w.file && d.Pos.Line == w.line && w.re.MatchString(d.Message) {
						w.hit = true
						continue outer
					}
				}
				t.Errorf("unexpected diagnostic: %s", d)
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestAllowSuppresses checks both directive placements (trailing on the
// flagged line, and on the line directly above): a well-formed, reasoned
// //bgr:allow must silence the finding completely.
func TestAllowSuppresses(t *testing.T) {
	diags := runFixture(t, "allowok")
	for _, d := range diags {
		t.Errorf("suppressed fixture still reports: %s", d)
	}
}

// TestAllowRot checks that directive rot is itself an error: a stale
// suppression, one naming an unknown analyzer, a malformed one, and a
// leftover //bgr:owned or //bgr:hot, whose analyzers are deleted, must
// each produce an "allow" diagnostic — and nothing else.
func TestAllowRot(t *testing.T) {
	diags := runFixture(t, "allowstale")
	expect := []string{"stale suppression", "unknown analyzer", "malformed suppression",
		`unknown bgr directive "//bgr:owned"`, `unknown bgr directive "//bgr:hot"`}
	var unmatched []Diagnostic
outer:
	for _, d := range diags {
		if d.Analyzer != "allow" {
			t.Errorf("unexpected non-allow diagnostic: %s", d)
			continue
		}
		for i, sub := range expect {
			if sub != "" && strings.Contains(d.Message, sub) {
				expect[i] = ""
				continue outer
			}
		}
		unmatched = append(unmatched, d)
	}
	for _, sub := range expect {
		if sub != "" {
			t.Errorf("no allow diagnostic mentioning %q (got %v)", sub, diags)
		}
	}
	for _, d := range unmatched {
		t.Errorf("extra allow diagnostic: %s", d)
	}
}

// TestLoadCache pins the per-process load memoization: repeating the
// same (dir, patterns) request must return the identical packages, not a
// re-parsed copy, so fixture-heavy test runs pay for go list and the
// type checker once per distinct request.
func TestLoadCache(t *testing.T) {
	first := loadFixture(t, "maporder")
	second := loadFixture(t, "maporder")
	if first[0] != second[0] {
		t.Fatalf("repeated Load returned a fresh package: %p vs %p", first[0], second[0])
	}
	if first[0].Fset != second[0].Fset {
		t.Fatal("repeated Load rebuilt the shared FileSet")
	}
}

// TestLoadFailsOnBadPattern pins bgr-vet's exit-2 contract: a pattern
// that go list rejects fails the load, and bgr-vet exits 2, instead of
// vetting nothing and reporting a clean run.
func TestLoadFailsOnBadPattern(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/absent")
	if err == nil {
		t.Fatalf("Load of a missing directory returned %d packages and no error", len(pkgs))
	}
	if !strings.Contains(err.Error(), "go list") {
		t.Fatalf("Load error %q does not name the go list failure", err)
	}
}

// TestDiagnosticString pins the file:line:col: analyzer: message rendering
// the CI log and editors rely on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "maporder", Message: "boom"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "x.go", 3, 7
	if got, wantS := d.String(), "x.go:3:7: maporder: boom"; got != wantS {
		t.Fatalf("String() = %q, want %q", got, wantS)
	}
}

// TestRepositoryClean is the acceptance gate: the real tree must come out
// of the full suite with zero diagnostics (CI runs the same check via
// `go run ./cmd/bgr-vet ./...`).
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load in -short mode")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	diags := Run(pkgs, Analyzers())
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.String())
	}
	if len(msgs) > 0 {
		t.Fatalf("repository is not vet-clean:\n%s", fmt.Sprint(strings.Join(msgs, "\n")))
	}
}
