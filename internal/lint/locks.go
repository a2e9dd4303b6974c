package lint

import (
	"go/ast"
	"go/types"
)

// analyzerLocks applies one lock-hygiene heuristic everywhere in the
// module (the service layer holds real mutexes; determinism is not the
// concern here, deadlocks and torn state are): a Lock()/RLock() call
// with no paired release — neither a matching defer Unlock/RUnlock later
// in the same block, nor a matching explicit Unlock later in the same
// block with no return statement between the two. A mutex copied by
// value is go vet's copylocks check, which CI runs.
//
// The pairing check is deliberately shallow — it inspects one block at a
// time and only flags patterns that are locally provably unpaired or
// cross a return. Convoluted-but-correct flows can carry a
// //bgr:allow locks directive with the invariant spelled out.
var analyzerLocks = &Analyzer{
	Name: "locks",
	Doc:  "flags Lock calls without a paired release",
	Run: func(pkg *Package) []Diagnostic {
		var out []Diagnostic
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if blk, ok := n.(*ast.BlockStmt); ok {
					out = append(out, checkLockPairing(pkg, blk)...)
				}
				return true
			})
		}
		return out
	},
}

// lockCall matches a top-level `recv.Lock()` / `recv.RLock()` statement on
// a sync mutex and returns the rendered receiver, the acquire method name
// and the matching release method name.
func lockCall(pkg *Package, st ast.Stmt) (recv, acquire, release string, pos ast.Node, ok bool) {
	sel, name, okc := syncMethodCall(pkg, st)
	if !okc {
		return "", "", "", nil, false
	}
	switch name {
	case "Lock":
		return types.ExprString(sel.X), name, "Unlock", sel, true
	case "RLock":
		return types.ExprString(sel.X), name, "RUnlock", sel, true
	}
	return "", "", "", nil, false
}

// syncMethodCall matches `expr.M()` statements where M is a method of a
// sync type, returning the selector and method name.
func syncMethodCall(pkg *Package, st ast.Stmt) (*ast.SelectorExpr, string, bool) {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return nil, "", false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return nil, "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	obj := pkg.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return nil, "", false
	}
	return sel, obj.Name(), true
}

// deferredRelease matches `defer recv.release()`.
func deferredRelease(pkg *Package, st ast.Stmt, recv, release string) bool {
	ds, ok := st.(*ast.DeferStmt)
	if !ok {
		return false
	}
	sel, ok := ds.Call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != release {
		return false
	}
	obj := pkg.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return types.ExprString(sel.X) == recv
}

// explicitRelease matches a top-level `recv.release()` statement.
func explicitRelease(pkg *Package, st ast.Stmt, recv, release string) bool {
	sel, name, ok := syncMethodCall(pkg, st)
	return ok && name == release && types.ExprString(sel.X) == recv
}

func containsReturn(stmts []ast.Stmt) bool {
	found := false
	for _, st := range stmts {
		ast.Inspect(st, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ReturnStmt:
				found = true
			case *ast.FuncLit:
				return false // returns inside a closure leave the closure only
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// checkLockPairing scans one block's statement list for Lock/RLock calls
// and verifies each has a deferred or return-safe explicit release.
func checkLockPairing(pkg *Package, blk *ast.BlockStmt) []Diagnostic {
	var out []Diagnostic
	for i, st := range blk.List {
		recv, acquire, release, at, ok := lockCall(pkg, st)
		if !ok {
			continue
		}
		rest := blk.List[i+1:]
		paired := false
		for _, later := range rest {
			if deferredRelease(pkg, later, recv, release) {
				paired = true
				break
			}
		}
		if !paired {
			for j, later := range rest {
				if explicitRelease(pkg, later, recv, release) {
					if !containsReturn(rest[:j]) {
						paired = true
					}
					break
				}
			}
		}
		if !paired {
			out = append(out, pkg.diag(at.Pos(), "locks",
				"%s.%s() without a paired %s on every return path: defer %s.%s() right after the acquire, or release before any return", recv, acquire, release, recv, release))
		}
	}
	return out
}
