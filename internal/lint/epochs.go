package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// analyzerEpochs enforces the PR-2 cache contract: epoch and version
// counters (router.timEpoch) are
// the invalidation backbone of the incremental selection engine, and a
// write to one of them anywhere except its owning bump/invalidate method
// bypasses the paired bookkeeping (mate invalidation, dirty marking) that
// keeps cached criteria exact.
//
// A field is an epoch field when its name ends in "Epoch" or is exactly
// "epoch" or "version". A write is sanctioned when the enclosing function
// is a bump site — its name contains "touch", "bump" or "invalidate" — or
// an initializer (prefix "init", "new", "setup" or "reset", where the
// counters are first laid out). Anything else needs a //bgr:allow epochs
// directive explaining why the raw write is safe.
//
// The analyzer also guards the PR-4 dirty-set contract: the incremental
// timing engine's bookkeeping (Timing.dirty, Timing.dirtyCount) is owned
// by MarkNet/MarkAll/Flush, and a write anywhere else desynchronizes the
// dirty flags from dirtyCount or skips re-analysis entirely. Dirty-set
// fields (name "dirty", "dirtyCount" or suffix "Dirty", on a receiver
// struct named "Timing") may only be written inside a mark/flush method
// or an initializer; the rule is receiver-scoped so lazily cleared dirty
// flags in other packages (density.State) stay untouched.
//
// The third contract is PR-7's dirty-net bitset: router.dirtyBest and the
// per-channel net masks (suffix "NetBits") replace an O(nets) validity
// scan in selectEdge, and they stay exact only while every density
// mutation is mirrored by a mark and every consumption by a drain. A
// write to one of these fields (receiver struct named "router") is
// sanctioned only inside a mark/clear/drain method or an initializer;
// any other write needs a //bgr:allow epochs with the pairing argument.
var analyzerEpochs = &Analyzer{
	Name:              "epochs",
	Doc:               "flags epoch/version and timing dirty-set writes outside their owning methods",
	DeterministicOnly: true,
	Run: func(pkg *Package) []Diagnostic {
		var out []Diagnostic
		check := func(fd *ast.FuncDecl, lhs ast.Expr) {
			if name, ok := epochFieldWrite(pkg, lhs); ok && !epochBumpSite(fd.Name.Name) {
				out = append(out, pkg.diag(lhs.Pos(), "epochs",
					"write to epoch field %q outside a bump/invalidate method (%s): route it through the owning bump method so paired invalidation stays intact", name, fd.Name.Name))
			}
			if name, ok := dirtySetWrite(pkg, lhs); ok && !dirtyBumpSite(fd.Name.Name) {
				out = append(out, pkg.diag(lhs.Pos(), "epochs",
					"write to dirty-set field %q outside a mark/flush method (%s): route it through MarkNet/MarkAll/Flush so the dirty flags and dirtyCount stay paired", name, fd.Name.Name))
			}
			if name, ok := bitsetWrite(pkg, lhs); ok && !bitsetBumpSite(fd.Name.Name) {
				out = append(out, pkg.diag(lhs.Pos(), "epochs",
					"write to dirty-net bitset field %q outside a mark/clear/drain method (%s): route it through the owning mark/clear helpers so every density change stays paired with a drain", name, fd.Name.Name))
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch st := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range st.Lhs {
							check(fd, lhs)
						}
					case *ast.IncDecStmt:
						check(fd, st.X)
					}
					return true
				})
			}
		}
		return out
	},
}

// epochBumpSite reports whether a function name marks a sanctioned
// epoch-mutation site.
func epochBumpSite(name string) bool {
	l := strings.ToLower(name)
	if strings.Contains(l, "touch") || strings.Contains(l, "bump") || strings.Contains(l, "invalidate") {
		return true
	}
	for _, p := range []string{"init", "new", "setup", "reset"} {
		if strings.HasPrefix(l, p) {
			return true
		}
	}
	return false
}

// dirtyBumpSite reports whether a function name marks a sanctioned
// dirty-set mutation site. Kept separate from epochBumpSite: adding
// "mark" there would sanction any function whose name merely contains it
// (e.g. "benchmark") for epoch writes too.
func dirtyBumpSite(name string) bool {
	l := strings.ToLower(name)
	if strings.Contains(l, "mark") || strings.Contains(l, "flush") {
		return true
	}
	for _, p := range []string{"init", "new", "setup", "reset"} {
		if strings.HasPrefix(l, p) {
			return true
		}
	}
	return false
}

// epochFieldWrite reports whether the assignment target is (an element
// of) a struct field with an epoch-like name, returning the field name.
func epochFieldWrite(pkg *Package, lhs ast.Expr) (string, bool) {
	name, _, ok := fieldWrite(pkg, lhs)
	if !ok {
		return "", false
	}
	if strings.HasSuffix(name, "Epoch") || name == "epoch" || name == "version" {
		return name, true
	}
	return "", false
}

// dirtySetWrite reports whether the assignment target is (an element of)
// a dirty-set bookkeeping field of the timing engine: name "dirty",
// "dirtyCount" or suffix "Dirty", on a receiver struct named "Timing".
func dirtySetWrite(pkg *Package, lhs ast.Expr) (string, bool) {
	name, recv, ok := fieldWrite(pkg, lhs)
	if !ok || recv != "Timing" {
		return "", false
	}
	if name == "dirty" || name == "dirtyCount" || strings.HasSuffix(name, "Dirty") {
		return name, true
	}
	return "", false
}

// bitsetBumpSite reports whether a function name marks a sanctioned
// dirty-net bitset mutation site. "drain" joins mark/clear because the
// consuming side (selectEdge's drain loop, extracted into a helper)
// clears bits as it reads them.
func bitsetBumpSite(name string) bool {
	l := strings.ToLower(name)
	if strings.Contains(l, "mark") || strings.Contains(l, "clear") || strings.Contains(l, "drain") {
		return true
	}
	for _, p := range []string{"init", "new", "setup", "reset"} {
		if strings.HasPrefix(l, p) {
			return true
		}
	}
	return false
}

// bitsetWrite reports whether the assignment target is (an element of)
// the selection engine's dirty-net bitset state: field "dirtyBest" or
// suffix "NetBits", on a receiver struct named "router".
func bitsetWrite(pkg *Package, lhs ast.Expr) (string, bool) {
	name, recv, ok := fieldWrite(pkg, lhs)
	if !ok || recv != "router" {
		return "", false
	}
	if name == "dirtyBest" || strings.HasSuffix(name, "NetBits") {
		return name, true
	}
	return "", false
}

// fieldWrite resolves an assignment target to a struct field selection,
// returning the field name and the named type it was selected from ("" if
// the base type is unnamed).
func fieldWrite(pkg *Package, lhs ast.Expr) (field, recv string, ok bool) {
	for {
		ix, isIx := lhs.(*ast.IndexExpr)
		if !isIx {
			break
		}
		lhs = ix.X
	}
	sel, isSel := lhs.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	s, found := pkg.Info.Selections[sel]
	if !found || s.Kind() != types.FieldVal {
		return "", "", false
	}
	rt := s.Recv()
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	if named, isNamed := rt.(*types.Named); isNamed {
		recv = named.Obj().Name()
	}
	return sel.Sel.Name, recv, true
}
