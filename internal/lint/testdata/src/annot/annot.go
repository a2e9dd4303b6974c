// Fixture for annotation rot: every bgr:owned directive in this file is
// malformed or misattached, and each one must surface as a diagnostic
// instead of silently guarding nothing. The expectations live in
// TestAnnotationRot (substring assertions, not // want comments: the
// diagnostics land on the directive lines themselves, where a trailing
// want comment would change the directive text).
package core

type ws struct {
	// capacity is scalar bookkeeping, not a loanable buffer, so the
	// annotation below must be rejected.
	//
	//bgr:owned
	capacity int

	buf []byte
}

//bgr:owned stuff
var global []int

func stray() int {
	//bgr:owned
	return 1
}

var _ = ws{}
var _ = global
var _ = stray
