package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// loaderCache memoizes package loading within one process. Two layers:
//
//   - loaded: finished []*Package results keyed on (abs dir, patterns),
//     so a test binary that loads a dozen fixtures plus the whole module
//     runs `go list` and the type checker once per distinct request.
//   - the shared FileSet and gc importer, so the standard-library and
//     in-module export data backing those loads is materialized into
//     *types.Package values once, not once per Load call.
//
// Sharing type data across loads is only sound while the export files
// themselves are unchanged, so every load fingerprints each export file
// as path|size|mtime. Any mismatch with a fingerprint recorded earlier
// means the toolchain rebuilt something under us; the gc importer cannot
// evict single entries, so the whole cache is dropped and rebuilt.
type loaderCache struct {
	mu     sync.Mutex
	fset   *token.FileSet
	imp    types.Importer
	expors map[string]string // import path -> export file (merged over loads)
	prints map[string]string // import path -> path|size|mtime fingerprint
	loaded map[string][]*Package
}

var sharedLoader = &loaderCache{}

func (c *loaderCache) reset() {
	c.fset = token.NewFileSet()
	c.expors = map[string]string{}
	c.prints = map[string]string{}
	c.loaded = map[string][]*Package{}
	fset, exports := c.fset, c.expors
	c.imp = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// fingerprint stats one export file into the path|size|mtime form used
// to detect rebuilt export data between Load calls.
func fingerprint(path string) (string, error) {
	st, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s|%d|%d", path, st.Size(), st.ModTime().UnixNano()), nil
}

// admit folds one load's export map into the cache, dropping everything
// first if any already-cached export file changed on disk.
func (c *loaderCache) admit(exports map[string]string) error {
	fresh := make(map[string]string, len(exports))
	stale := false
	for ip, f := range exports {
		fp, err := fingerprint(f)
		if err != nil {
			return fmt.Errorf("lint: stat export data for %s: %w", ip, err)
		}
		fresh[ip] = fp
		if prev, ok := c.prints[ip]; ok && prev != fp {
			stale = true
		}
	}
	if stale {
		c.reset()
	}
	for ip, f := range exports {
		c.expors[ip] = f
		c.prints[ip] = fresh[ip]
	}
	return nil
}

// Load resolves the patterns with `go list -export -json -deps` (run in
// dir), parses every matched non-dependency package with comments, and
// type-checks it from source. Imports — including other in-module
// packages and the standard library — are satisfied from the compiler's
// export data, so loading stays fast and needs nothing beyond the Go
// toolchain itself.
//
// Results are memoized per process: repeating a (dir, patterns) request
// returns the previously built packages, and distinct requests share one
// FileSet and importer so export data is only materialized once. The
// cache assumes the source tree does not change while the process runs
// (the standard contract for a batch analysis tool); rebuilt export data
// is detected by fingerprint and drops the cache wholesale.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: resolving %s: %w", dir, err)
	}
	key := abs + "\x00" + strings.Join(patterns, "\x00")

	c := sharedLoader
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.loaded == nil {
		c.reset()
	}
	if pkgs, ok := c.loaded[key]; ok {
		return pkgs, nil
	}
	pkgs, err := c.load(dir, patterns)
	if err != nil {
		return nil, err
	}
	c.loaded[key] = pkgs
	return pkgs, nil
}

// load does the uncached work: one `go list` run, then parse and
// type-check every root package against the shared importer. The caller
// holds c.mu.
func (c *loaderCache) load(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=Dir,ImportPath,Name,GoFiles,Export,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %v: %w\n%s", patterns, err, stderr.String())
	}

	exports := map[string]string{}
	var roots []*listPkg
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPkg)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			roots = append(roots, p)
		}
	}

	if err := c.admit(exports); err != nil {
		return nil, err
	}
	fset, imp := c.fset, c.imp

	var out []*Package
	for _, lp := range roots {
		files := make([]*ast.File, 0, len(lp.GoFiles))
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", lp.ImportPath, err)
		}
		out = append(out, &Package{
			Fset:       fset,
			ImportPath: lp.ImportPath,
			Name:       lp.Name,
			Dir:        lp.Dir,
			GoFiles:    lp.GoFiles,
			Files:      files,
			Types:      tpkg,
			Info:       info,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}
