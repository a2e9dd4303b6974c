// Package lint is bgr's repo-specific static analysis suite: the
// compile-time half of the determinism contract that determinism_test.go
// checks dynamically (byte-identical routedb output for every worker
// count) and that docs/PERF.md's invalidation rules assume.
//
// The suite is built on the standard library only — packages are loaded
// with `go list -export -json`, parsed with go/parser and type-checked
// with go/types against the toolchain's export data — so the module keeps
// zero external requirements.
//
// Five analyzers are registered (see docs/LINT.md for the full contract
// each one guards):
//
//   - maporder: `range` over a map in a deterministic package
//   - floateq:  `==`/`!=` between floating-point operands
//   - clockuse: time.Now/time.Since/math-rand in a deterministic package
//   - locks:    Lock without a paired unlock on every return path
//   - scratch-escape: a bgr:owned scratch slice or view escaping its
//     owner (returned, stored elsewhere, or appended so the backing
//     array can reallocate)
//
// A finding is suppressible only with a reasoned directive on the same
// line or the line directly above:
//
//	//bgr:allow <analyzer> -- <reason>
//
// A directive that no longer suppresses anything is itself reported, so
// suppressions cannot rot silently.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned at the offending token.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// MarshalJSON renders the diagnostic as a flat, machine-stable object.
// Only the fields CI diffs are emitted — file (forward slashes), line,
// column, analyzer, message — so the byte output is identical across
// operating systems and `go list` orderings.
func (d Diagnostic) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}{filepath.ToSlash(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message})
}

// Relativize rewrites every diagnostic's file path to be relative to
// base when possible, so output (and the -json golden files) does not
// depend on where the tree is checked out.
func Relativize(diags []Diagnostic, base string) {
	for i := range diags {
		if rel, err := filepath.Rel(base, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}
}

// Package is one loaded, parsed and type-checked package.
type Package struct {
	Fset       *token.FileSet
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

func (p *Package) diag(pos token.Pos, analyzer, format string, args ...any) Diagnostic {
	return Diagnostic{Pos: p.Fset.Position(pos), Analyzer: analyzer, Message: fmt.Sprintf(format, args...)}
}

// Analyzer is one repo-specific check; Run inspects one package at a
// time.
type Analyzer struct {
	Name string
	Doc  string
	// DeterministicOnly restricts the analyzer to the deterministic
	// packages (see Deterministic).
	DeterministicOnly bool
	Run               func(*Package) []Diagnostic
}

// deterministicPkgs are the package names forming the deterministic
// routing core: every one of them feeds, directly or transitively, the
// byte-compared routedb output, so map iteration order, clock reads and
// unkeyed float tie-breaks inside them are reproducibility bugs. Matching
// is by package name (not import path) so golden-test fixture packages
// under testdata/ participate.
var deterministicPkgs = map[string]bool{
	"core":      true,
	"rgraph":    true,
	"dgraph":    true,
	"density":   true,
	"chanroute": true,
	"feed":      true,
	"seqroute":  true,
	"steiner":   true,
	"routedb":   true,
}

// Deterministic reports whether a package is part of the deterministic
// routing core that maporder, floateq, clockuse and scratch-escape
// guard.
func Deterministic(pkgName string) bool { return deterministicPkgs[pkgName] }

// Analyzers returns the full registered suite, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerMapOrder,
		analyzerFloatEq,
		analyzerClockUse,
		analyzerLocks,
		analyzerScratchEscape,
	}
}

// directive is one parsed //bgr:allow comment.
type directive struct {
	pos      token.Position
	analyzer string
	reason   string
	used     bool
}

const directivePrefix = "//bgr:allow"

var directiveRE = regexp.MustCompile(`^//bgr:allow\s+([A-Za-z0-9_-]+)\s+--\s+(\S.*)$`)

// parseDirectives extracts the //bgr:allow directives of a package.
// Malformed directives (missing analyzer, missing the " -- reason" part,
// or naming an analyzer that does not exist) are reported immediately and
// do not suppress anything.
func parseDirectives(pkg *Package, known map[string]bool) ([]*directive, []Diagnostic) {
	var dirs []*directive
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimRight(c.Text, " \t")
				if !strings.HasPrefix(text, "//bgr:") {
					continue
				}
				if !strings.HasPrefix(text, directivePrefix) {
					// bgr:owned is validated by scratch-escape, which
					// consumes it; any other verb is a typo that would
					// otherwise rot silently.
					if !strings.HasPrefix(text, ownedPrefix) {
						bad = append(bad, Diagnostic{Pos: pkg.Fset.Position(c.Pos()), Analyzer: "allow",
							Message: fmt.Sprintf("unknown bgr directive %s: the known verbs are allow and owned", quoteDirective(text))})
					}
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m := directiveRE.FindStringSubmatch(text)
				if m == nil {
					bad = append(bad, Diagnostic{Pos: pos, Analyzer: "allow",
						Message: fmt.Sprintf("malformed suppression %q: want %s <analyzer> -- <reason>", text, directivePrefix)})
					continue
				}
				if !known[m[1]] {
					bad = append(bad, Diagnostic{Pos: pos, Analyzer: "allow",
						Message: fmt.Sprintf("suppression names unknown analyzer %q", m[1])})
					continue
				}
				dirs = append(dirs, &directive{pos: pos, analyzer: m[1], reason: m[2]})
			}
		}
	}
	return dirs, bad
}

// matches reports whether the directive suppresses d: same analyzer, same
// file, and the directive sits on the diagnostic's line (trailing comment)
// or the line directly above it.
func (dir *directive) matches(d Diagnostic) bool {
	return dir.analyzer == d.Analyzer &&
		dir.pos.Filename == d.Pos.Filename &&
		(dir.pos.Line == d.Pos.Line || dir.pos.Line == d.Pos.Line-1)
}

// Run applies the analyzers to every package, resolves suppressions, and
// returns the surviving diagnostics plus one "allow" diagnostic for every
// stale or malformed directive, fully ordered by (file, line, column,
// analyzer, message).
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var raw, out []Diagnostic
	var dirs []*directive
	for _, pkg := range pkgs {
		det := Deterministic(pkg.Name)
		for _, a := range analyzers {
			if a.DeterministicOnly && !det {
				continue
			}
			raw = append(raw, a.Run(pkg)...)
		}
		pd, bad := parseDirectives(pkg, known)
		dirs = append(dirs, pd...)
		out = append(out, bad...)
	}
	for _, d := range raw {
		suppressed := false
		for _, dir := range dirs {
			if dir.matches(d) {
				dir.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, dir := range dirs {
		if !dir.used {
			out = append(out, Diagnostic{Pos: dir.pos, Analyzer: "allow",
				Message: fmt.Sprintf("stale suppression: no %s diagnostic on this or the next line; delete the //bgr:allow", dir.analyzer)})
		}
	}
	Sort(out)
	return out
}

// Sort orders diagnostics by (file, line, column, analyzer, message) —
// the full key, so equal-position findings from different analyzers (or
// duplicate-position findings with different messages) still render in
// one deterministic order on every machine.
func Sort(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
