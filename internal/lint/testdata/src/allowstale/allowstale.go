// Fixture for directive rot: a suppression that no longer suppresses
// anything, one naming an unknown analyzer, one missing the " -- reason"
// separator, and the leftover //bgr:owned and //bgr:hot verbs of deleted
// analyzers must each surface as an "allow" diagnostic.
package core

//bgr:allow maporder -- nothing here ranges a map any more
func fine(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

//bgr:allow notananalyzer -- no analyzer has this name
var a = 1

//bgr:allow clockuse missing the reason separator
var b = 2

type ws struct {
	//bgr:owned
	buf []byte
}

//bgr:hot
func use(w *ws) int { return len(w.buf) }

var _ = use
