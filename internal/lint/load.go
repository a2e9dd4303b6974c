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

// Load resolves the patterns with `go list -export -json -deps` (run in
// dir), parses every matched non-dependency package with comments, and
// type-checks it from source. Imports — including other in-module
// packages and the standard library — are satisfied from the compiler's
// export data, so loading stays fast and needs nothing beyond the Go
// toolchain itself. Each call builds its own FileSet and importer.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
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

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

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
