package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// analyzerScratchEscape enforces the PR-7 ownership contract documented
// in docs/PERF.md: a bgr:owned struct field is a scratch buffer or a
// view into a shared backing array (CSR subslices, pooled workspaces),
// owned by exactly one struct and overwritten in place. The zero-alloc
// discipline holds only while such a slice never outlives or escapes
// its owner, so the analyzer flags, per function:
//
//  1. returning an owned slice (or a subslice/element view of one, or a
//     local it was copied into) — the caller would hold an alias the
//     next reuse silently clobbers;
//  2. storing one into a field of a different struct type than the
//     owner — ownership transfer without a copy;
//  3. appending to one with the result bound to anything but the same
//     storage — if append reallocates, the new array silently unaliases
//     every existing view.
//
// The analyzer runs only in the deterministic packages, which start no
// goroutines, so a second owner cannot arise there.
//
// The dataflow is intra-function and statement-ordered: locals assigned
// from owned expressions are tainted with the owner type, reassignment
// from a non-owned value clears the taint, and only slice-typed
// expressions propagate it (indexing a []int32 yields a copy, not a
// view). Views deliberately lent to callers (result backings documented
// as "valid until the next call") carry //bgr:allow scratch-escape
// directives with the loan spelled out.
var analyzerScratchEscape = &Analyzer{
	Name:              "scratch-escape",
	Doc:               "flags bgr:owned scratch slices escaping their owning struct",
	DeterministicOnly: true,
	Run: func(pkg *Package) []Diagnostic {
		owned, diags := ownedFields(pkg)
		if len(owned) == 0 {
			return diags
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				sc := &scratchChecker{pkg: pkg, owned: owned, fn: fd.Name.Name,
					taint: map[types.Object]*types.Named{}}
				sc.block(fd.Body)
				diags = append(diags, sc.out...)
			}
		}
		return diags
	},
}

// scratchChecker carries one function's taint state.
type scratchChecker struct {
	pkg   *Package
	owned map[*types.Var]bool
	fn    string
	taint map[types.Object]*types.Named // tainted local → owner type
	out   []Diagnostic
}

func (sc *scratchChecker) diag(pos token.Pos, format string, args ...any) {
	sc.out = append(sc.out, sc.pkg.diag(pos, "scratch-escape", format, args...))
}

// source resolves e to owned storage: an owned field selection, a
// subslice/slice-element view of one, or a tainted local. It returns
// the owner type and a printable name. Only slice-typed expressions
// qualify — indexing to a scalar or copying an array detaches from the
// backing storage.
func (sc *scratchChecker) source(e ast.Expr) (*types.Named, string, bool) {
	if t := sc.pkg.Info.TypeOf(e); t == nil || !isSlice(t) {
		return nil, "", false
	}
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			goto resolved
		}
	}
resolved:
	switch x := e.(type) {
	case *ast.Ident:
		if obj := sc.pkg.Info.Uses[x]; obj != nil {
			if owner, ok := sc.taint[obj]; ok {
				return owner, x.Name, true
			}
		}
	case *ast.SelectorExpr:
		if s, ok := sc.pkg.Info.Selections[x]; ok && s.Kind() == types.FieldVal {
			if v, ok := s.Obj().(*types.Var); ok && sc.owned[v] {
				return namedRecv(s.Recv()), x.Sel.Name, true
			}
		}
	}
	return nil, "", false
}

func isSlice(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

func namedRecv(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func ownerName(n *types.Named) string {
	if n == nil {
		return "?"
	}
	return n.Obj().Name()
}

// block walks a statement list in order, updating taint and reporting
// escapes. Nested control-flow blocks recurse; closure bodies are not
// walked.
func (sc *scratchChecker) block(b *ast.BlockStmt) {
	for _, st := range b.List {
		sc.stmt(st)
	}
}

func (sc *scratchChecker) stmt(st ast.Stmt) {
	switch s := st.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) {
			for i := range s.Lhs {
				sc.assign(s.Lhs[i], s.Rhs[i])
			}
		} else {
			for _, l := range s.Lhs {
				sc.untaint(l)
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if owner, name, ok := sc.source(r); ok {
				sc.diag(r.Pos(), "owned scratch %q of %s returned from %s: the caller would alias a backing array the next reuse clobbers; copy into a caller-provided buffer, or document the loan with a //bgr:allow", name, ownerName(owner), sc.fn)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Names) == len(vs.Values) {
					for i := range vs.Names {
						sc.assign(vs.Names[i], vs.Values[i])
					}
				}
			}
		}
	case *ast.BlockStmt:
		sc.block(s)
	case *ast.IfStmt:
		if s.Init != nil {
			sc.stmt(s.Init)
		}
		sc.block(s.Body)
		if s.Else != nil {
			sc.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			sc.stmt(s.Init)
		}
		sc.block(s.Body)
	case *ast.RangeStmt:
		sc.block(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			sc.stmt(s.Init)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, cs := range cc.Body {
					sc.stmt(cs)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, cs := range cc.Body {
					sc.stmt(cs)
				}
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				for _, cs := range cc.Body {
					sc.stmt(cs)
				}
			}
		}
	case *ast.LabeledStmt:
		sc.stmt(s.Stmt)
	case *ast.ExprStmt:
		// Calls taking owned slices as plain arguments are the callee's
		// contract (ElmoreDelaysInto-style Into APIs); nothing to check.
	}
}

// assign handles one lhs = rhs pair: taint propagation, field stores
// and the append-rebinding rule.
func (sc *scratchChecker) assign(lhs, rhs ast.Expr) {
	if call := appendCall(rhs); call != nil && len(call.Args) > 0 {
		if owner, name, ok := sc.source(call.Args[0]); ok {
			if !sc.sameStorage(lhs, call.Args[0]) {
				sc.diag(call.Pos(), "append to owned scratch %q of %s rebound to %s: a reallocation would silently unalias every view of the backing array; assign the result back to the same storage", name, ownerName(owner), types.ExprString(lhs))
				return
			}
			sc.taintLhs(lhs, owner)
			return
		}
	}
	if owner, name, ok := sc.source(rhs); ok {
		switch l := stripParens(lhs).(type) {
		case *ast.Ident:
			if l.Name == "_" {
				return
			}
			if obj := sc.pkg.Info.Defs[l]; obj != nil {
				sc.taint[obj] = owner
				return
			}
			if obj := sc.pkg.Info.Uses[l]; obj != nil {
				sc.taint[obj] = owner
				return
			}
		case *ast.SelectorExpr:
			if s, ok := sc.pkg.Info.Selections[l]; ok && s.Kind() == types.FieldVal {
				dst := namedRecv(s.Recv())
				v, isVar := s.Obj().(*types.Var)
				if isVar && sc.owned[v] && dst == owner {
					return // written back into the owner's own scratch slots
				}
				sc.diag(l.Pos(), "owned scratch %q of %s stored into field %s.%s outside its owner: ownership moved without a copy; copy the contents or annotate the destination", name, ownerName(owner), ownerName(dst), l.Sel.Name)
				return
			}
		}
		// Element writes (x[i] = view) and other sinks stay local.
		return
	}
	sc.untaint(lhs)
}

func (sc *scratchChecker) taintLhs(lhs ast.Expr, owner *types.Named) {
	if id, ok := stripParens(lhs).(*ast.Ident); ok && id.Name != "_" {
		if obj := sc.pkg.Info.Defs[id]; obj != nil {
			sc.taint[obj] = owner
			return
		}
		if obj := sc.pkg.Info.Uses[id]; obj != nil {
			sc.taint[obj] = owner
		}
	}
}

func (sc *scratchChecker) untaint(lhs ast.Expr) {
	if id, ok := stripParens(lhs).(*ast.Ident); ok {
		if obj := sc.pkg.Info.Uses[id]; obj != nil {
			delete(sc.taint, obj)
		}
		if obj := sc.pkg.Info.Defs[id]; obj != nil {
			delete(sc.taint, obj)
		}
	}
}

// sameStorage reports whether two expressions name the same variable or
// the same field path — the `x = append(x, ...)` self-grow pattern.
func (sc *scratchChecker) sameStorage(a, b ast.Expr) bool {
	a, b = stripParens(a), stripParens(b)
	ai, aok := a.(*ast.Ident)
	bi, bok := b.(*ast.Ident)
	if aok && bok {
		return identObj(sc.pkg, ai) != nil && identObj(sc.pkg, ai) == identObj(sc.pkg, bi)
	}
	return types.ExprString(a) == types.ExprString(b)
}

func identObj(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pkg.Info.Defs[id]
}

func stripParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// appendCall matches a call to the append builtin.
func appendCall(e ast.Expr) *ast.CallExpr {
	call, ok := stripParens(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil
	}
	return call
}
