package lint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// analyzerHotAlloc enforces the PR-7 zero-allocation contract with the
// compiler's own escape analysis instead of heuristics. The pipeline:
//
//  1. collect the //bgr:hot entry points (selectEdge, Timing.Flush,
//     the density Add/Remove methods, TentativeInto, BuildInto, ...);
//  2. build a whole-module static call graph from the type-checked
//     ASTs — keyed by stable "pkg.(Recv).name" strings, because the
//     same function is a different types.Object when seen through
//     export data — and walk it to the set of functions reachable from
//     any hot root;
//  3. recompile the packages containing reachable functions with
//     `go build -gcflags=-json=0,<tmpdir>`, which makes the gc compiler
//     emit its escape-analysis verdicts as LSP-style JSON diagnostics;
//  4. every "escapes to heap" / "moved to heap" site inside a reachable
//     function is a finding unless a checked-in allowlist entry
//     (internal/lint/hotalloc_allow.txt) covers it with a reason.
//
// Allowlist entries that no longer match any site are reported as stale,
// exactly like //bgr:allow rot, so the list cannot accumulate dead
// excuses. Any toolchain failure — the build, a missing dump, an
// unparsable line — is a hard error (bgr-vet exits 2), never a silent
// pass.
//
// Known limits, by design: calls through interfaces or stored function
// values are not resolved (the hot path is concrete calls throughout),
// and allocations inlined into a caller are attributed to the caller's
// call-site line — which is still inside the hot region, so nothing is
// missed, merely double-reported and deduplicated.
var analyzerHotAlloc = &Analyzer{
	Name:   "hotalloc",
	Doc:    "flags compiler-proven heap allocations reachable from bgr:hot entry points",
	RunAll: runHotAlloc,
}

// funcKeyOf renders the stable cross-package identity of a function:
// "pkgpath.name" for plain functions, "pkgpath.(Recv).name" for methods
// (pointerness is erased — a method set has one owner type).
func funcKeyOf(fn *types.Func) string {
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return path + ".(" + named.Obj().Name() + ")." + fn.Name()
		}
		return path + ".(?)." + fn.Name()
	}
	return path + "." + fn.Name()
}

// funcDisplay is the short human form used in diagnostics and the
// allowlist: package name (not path) plus receiver and function name,
// with the receiver's pointerness kept for readability.
func funcDisplay(pkg *Package, fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		return pkg.Name + ".(" + types.ExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
	}
	return pkg.Name + "." + fd.Name.Name
}

// funcSpan is one declared function's source extent, for mapping a
// compiler diagnostic line back to the function that contains it.
type funcSpan struct {
	start, end int
	key        string
	display    string
}

// hotCallGraph is the static call graph plus everything needed to map
// compiler output back to source.
type hotCallGraph struct {
	edges map[string][]string   // caller key → callee keys
	spans map[string][]funcSpan // abs source file → declared functions
	pkgOf map[string]*Package   // decl key → owning package
}

func buildHotCallGraph(pkgs []*Package) *hotCallGraph {
	g := &hotCallGraph{
		edges: map[string][]string{},
		spans: map[string][]funcSpan{},
		pkgOf: map[string]*Package{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := funcKeyOf(fn)
				g.pkgOf[key] = pkg
				start := pkg.Fset.Position(fd.Pos())
				end := pkg.Fset.Position(fd.End())
				g.spans[start.Filename] = append(g.spans[start.Filename],
					funcSpan{start: start.Line, end: end.Line, key: key, display: funcDisplay(pkg, fd)})
				// Callees: every identifier resolving to a function,
				// including method selections and function values taken
				// by reference. Closures belong to the enclosing decl.
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if callee, ok := pkg.Info.Uses[id].(*types.Func); ok {
						g.edges[key] = append(g.edges[key], funcKeyOf(callee))
					}
					return true
				})
			}
		}
	}
	return g
}

// reachableFrom walks the call graph from the root keys.
func (g *hotCallGraph) reachableFrom(roots []string) map[string]bool {
	seen := map[string]bool{}
	queue := append([]string(nil), roots...)
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		if seen[k] {
			continue
		}
		seen[k] = true
		queue = append(queue, g.edges[k]...)
	}
	return seen
}

// allocSite is one deduplicated compiler-reported heap allocation.
type allocSite struct {
	file    string
	line    int
	col     int
	message string
	display string // enclosing function, "" when outside any decl
	key     string
}

// escapeDump drives `go build -gcflags=-json=0,<dir>` over the given
// import paths and parses every emitted diagnostic file. A build
// failure, an empty dump or an unparsable line is an error.
func escapeDump(dir string, paths []string) ([]allocSite, error) {
	tmp, err := os.MkdirTemp("", "bgr-hotalloc-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	args := append([]string{"build", "-gcflags=-json=0," + tmp}, paths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build for escape analysis failed: %v\n%s", err, stderr.String())
	}
	var sites []allocSite
	files := 0
	err = filepath.Walk(tmp, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		files++
		s, perr := parseEscapeDump(path)
		if perr != nil {
			return perr
		}
		sites = append(sites, s...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if files == 0 {
		return nil, fmt.Errorf("go build succeeded but emitted no escape-analysis dump under %s: compiler -json support missing?", tmp)
	}
	return sites, nil
}

// parseEscapeDump reads one per-source-file compiler diagnostic dump.
// The first line is a header carrying the source file path; every later
// line is one LSP-style diagnostic.
func parseEscapeDump(path string) ([]allocSite, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var sites []allocSite
	srcFile := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for lineno := 1; sc.Scan(); lineno++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if lineno == 1 {
			var hdr struct {
				Version *int   `json:"version"`
				File    string `json:"file"`
			}
			if err := json.Unmarshal(line, &hdr); err != nil || hdr.Version == nil || hdr.File == "" {
				return nil, fmt.Errorf("%s:1: unparsable escape-dump header: %v", path, err)
			}
			srcFile = hdr.File
			continue
		}
		var d struct {
			Range struct {
				Start struct {
					Line      int `json:"line"`
					Character int `json:"character"`
				} `json:"start"`
			} `json:"range"`
			Code    any    `json:"code"`
			Message string `json:"message"`
		}
		if err := json.Unmarshal(line, &d); err != nil {
			return nil, fmt.Errorf("%s:%d: unparsable escape-dump diagnostic: %v", path, lineno, err)
		}
		code, _ := d.Code.(string)
		if code != "escape" && code != "escapes" && code != "leak" {
			continue
		}
		if !strings.Contains(d.Message, "escapes to heap") && !strings.Contains(d.Message, "moved to heap") {
			continue
		}
		sites = append(sites, allocSite{
			file:    srcFile,
			line:    d.Range.Start.Line,
			col:     d.Range.Start.Character + 1,
			message: d.Message,
		})
	}
	return sites, sc.Err()
}

// allowEntry is one parsed hotalloc allowlist line:
//
//	<pkg>.<func> :: <message substring or *> -- <reason>
type allowEntry struct {
	file    string
	line    int
	fn      string
	pattern string
	used    bool
}

func loadAllowlist(path string) ([]*allowEntry, []Diagnostic, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("hotalloc allowlist: %w", err)
	}
	var entries []*allowEntry
	var diags []Diagnostic
	for i, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pos := func() Diagnostic {
			return Diagnostic{Pos: positionAt(path, i+1), Analyzer: "hotalloc"}
		}
		body, _, okReason := strings.Cut(line, " -- ")
		fn, pattern, okSep := strings.Cut(body, " :: ")
		fn, pattern = strings.TrimSpace(fn), strings.TrimSpace(pattern)
		if !okReason || !okSep || fn == "" || pattern == "" {
			d := pos()
			d.Message = fmt.Sprintf("malformed allowlist entry %s: want <pkg>.<func> :: <message substring or *> -- <reason>", quoteDirective(line))
			diags = append(diags, d)
			continue
		}
		entries = append(entries, &allowEntry{file: path, line: i + 1, fn: fn, pattern: pattern})
	}
	return entries, diags, nil
}

func (e *allowEntry) covers(s allocSite) bool {
	return e.fn == s.display && (e.pattern == "*" || strings.Contains(s.message, e.pattern))
}

func positionAt(file string, line int) token.Position {
	return token.Position{Filename: file, Line: line, Column: 1}
}

// SuggestAllowlist runs the hotalloc pipeline and renders one candidate
// allowlist line per surviving site, for `bgr-vet -suggest-allow` and
// the CI failure diff.
func SuggestAllowlist(ctx *Context, pkgs []*Package) ([]string, error) {
	sites, _, _, err := hotSites(ctx, pkgs)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	for _, s := range sites {
		line := fmt.Sprintf("%s :: %s -- TODO: justify or remove this allocation", s.display, s.message)
		if !seen[line] {
			seen[line] = true
			out = append(out, line)
		}
	}
	sort.Strings(out)
	return out, nil
}

// hotSites is the shared front half of the pipeline: annotation
// validation, call graph, compile, dump parse, reachability filter.
// It returns the allocation sites inside hot-reachable functions, the
// annotation diagnostics, and whether a compile actually ran (it is
// skipped entirely when no bgr:hot root exists, e.g. in fixtures for
// the other analyzers).
func hotSites(ctx *Context, pkgs []*Package) ([]allocSite, []Diagnostic, bool, error) {
	var diags []Diagnostic
	var roots []string
	for _, pkg := range pkgs {
		fns, bad := hotFuncs(pkg)
		diags = append(diags, bad...)
		for fn := range fns {
			roots = append(roots, funcKeyOf(fn))
		}
	}
	if len(roots) == 0 {
		return nil, diags, false, nil
	}
	sort.Strings(roots)
	g := buildHotCallGraph(pkgs)
	reachable := g.reachableFrom(roots)
	pathSet := map[string]bool{}
	for key := range reachable {
		if pkg := g.pkgOf[key]; pkg != nil {
			pathSet[pkg.ImportPath] = true
		}
	}
	paths := make([]string, 0, len(pathSet))
	for p := range pathSet {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	dir := ctx.Dir
	if dir == "" {
		dir = "."
	}
	raw, err := escapeDump(dir, paths)
	if err != nil {
		return nil, nil, false, err
	}
	dedup := map[string]bool{}
	var sites []allocSite
	for _, s := range raw {
		for _, span := range g.spans[s.file] {
			if s.line >= span.start && s.line <= span.end {
				s.display, s.key = span.display, span.key
				break
			}
		}
		if s.key == "" || !reachable[s.key] {
			continue
		}
		id := fmt.Sprintf("%s:%d:%s", s.file, s.line, s.message)
		if dedup[id] {
			continue
		}
		dedup[id] = true
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		return a.message < b.message
	})
	return sites, diags, true, nil
}

func runHotAlloc(ctx *Context, pkgs []*Package) ([]Diagnostic, error) {
	sites, diags, ran, err := hotSites(ctx, pkgs)
	if err != nil {
		return nil, err
	}
	if !ran {
		// No bgr:hot roots → no compile → the allowlist (if any) has
		// nothing to be checked against; only annotation diagnostics.
		return diags, nil
	}
	var entries []*allowEntry
	if ctx.Allowlist != "" {
		var bad []Diagnostic
		entries, bad, err = loadAllowlist(ctx.Allowlist)
		if err != nil {
			return nil, err
		}
		diags = append(diags, bad...)
	}
	for _, s := range sites {
		allowed := false
		for _, e := range entries {
			if e.covers(s) {
				e.used = true
				allowed = true
			}
		}
		if allowed {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:      token.Position{Filename: s.file, Line: s.line, Column: s.col},
			Analyzer: "hotalloc",
			Message: fmt.Sprintf("heap allocation in hot path: %s in %s (reachable from a bgr:hot entry point); pool or hoist it, or add a reasoned allowlist entry",
				s.message, s.display),
		})
	}
	for _, e := range entries {
		if !e.used {
			diags = append(diags, Diagnostic{
				Pos:      positionAt(e.file, e.line),
				Analyzer: "hotalloc",
				Message:  fmt.Sprintf("stale hotalloc allowlist entry for %s: no reachable allocation matches %q anymore; delete the line", e.fn, e.pattern),
			})
		}
	}
	return diags, nil
}
