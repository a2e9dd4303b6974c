package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// The bgr:owned annotation marks the code the scratch-escape analyzer
// enforces: on a struct field of slice (or array) type, it declares the
// field a scratch buffer or view owned by that struct, which must not
// leak out of its owner.
//
// It is written as a comment ("//" + the directive), either trailing on
// the annotated line or inside the field's doc comment, and optionally
// carries a note after " -- ". A directive that is malformed or not
// attached to a slice-typed struct field is itself a diagnostic —
// annotations must not rot into silent no-ops.

const ownedPrefix = "//bgr:owned"

var annotRE = regexp.MustCompile(`^//bgr:owned(?:\s+--\s+\S.*)?$`)

// ownedComments yields the well-formed bgr:owned comments of a file,
// reporting malformed ones (right prefix, wrong grammar).
func ownedComments(pkg *Package, f *ast.File) ([]*ast.Comment, []Diagnostic) {
	var out []*ast.Comment
	var bad []Diagnostic
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimRight(c.Text, " \t")
			if !strings.HasPrefix(text, ownedPrefix) {
				continue
			}
			if !annotRE.MatchString(text) {
				bad = append(bad, Diagnostic{Pos: pkg.Fset.Position(c.Pos()), Analyzer: "scratch-escape",
					Message: "malformed annotation " + quoteDirective(text) + ": want " + ownedPrefix + " or " + ownedPrefix + " -- <note>"})
				continue
			}
			out = append(out, c)
		}
	}
	return out, bad
}

func quoteDirective(text string) string {
	if len(text) > 60 {
		text = text[:60] + "..."
	}
	return "\"" + text + "\""
}

// ownedFields collects the bgr:owned annotated struct fields of a
// package. The annotation must sit on a struct field's line (or its doc
// line), and the field must be slice- or array-typed — ownership of a
// scalar is meaningless, and a silent no-op annotation is worse than
// none.
func ownedFields(pkg *Package) (map[*types.Var]bool, []Diagnostic) {
	out := map[*types.Var]bool{}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		attach := map[int]*ast.Field{}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				attach[pkg.Fset.Position(field.Pos()).Line] = field
				if field.Doc != nil {
					for _, c := range field.Doc.List {
						attach[pkg.Fset.Position(c.Pos()).Line] = field
					}
				}
				if field.Comment != nil {
					for _, c := range field.Comment.List {
						attach[pkg.Fset.Position(c.Pos()).Line] = field
					}
				}
			}
			return true
		})
		comments, bad := ownedComments(pkg, f)
		diags = append(diags, bad...)
		for _, c := range comments {
			pos := pkg.Fset.Position(c.Pos())
			field := attach[pos.Line]
			if field == nil {
				diags = append(diags, Diagnostic{Pos: pos, Analyzer: "scratch-escape",
					Message: "bgr:owned is not attached to a struct field: put it on the field's line or in its doc comment"})
				continue
			}
			t := pkg.Info.TypeOf(field.Type)
			if t == nil || !sliceOrArray(t) {
				diags = append(diags, Diagnostic{Pos: pos, Analyzer: "scratch-escape",
					Message: "bgr:owned field must be slice- or array-typed: ownership tracking is about backing arrays, not scalar copies"})
				continue
			}
			for _, name := range field.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					out[v] = true
				}
			}
		}
	}
	return out, diags
}

func sliceOrArray(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}
