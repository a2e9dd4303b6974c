// Fixture for the scratch-escape analyzer: the package is named "rgraph"
// so the deterministic-only analyzers run, and the ws struct mirrors the
// per-graph dijkstra workspace whose slices must never outlive it.
package rgraph

type ws struct {
	// dist is the per-vertex relaxation scratch.
	//bgr:owned
	dist []float64
	//bgr:owned -- CSR view rows into one backing array
	rows []int32
	// cap is plain state, not scratch: untracked.
	cap int
}

type stash struct {
	kept []int32
	mine []float64 //bgr:owned
}

// grow is the sanctioned self-append pattern: the result goes back into
// the same storage, so existing views stay coherent or are rebuilt by
// the owner itself.
func (w *ws) grow(n int) {
	for len(w.rows) < n {
		w.rows = append(w.rows, 0)
	}
}

// fill only writes elements in place: clean.
func (w *ws) fill(v float64) {
	for i := range w.dist {
		w.dist[i] = v
	}
}

// snapshot copies out of the scratch — the slice handed back owns its
// own array, so this is clean.
func (w *ws) snapshot() []float64 {
	out := make([]float64, len(w.dist))
	copy(out, w.dist)
	return out
}

func (w *ws) lend() []float64 {
	return w.dist // want "owned scratch .dist. of ws returned from lend"
}

func (w *ws) lendView(a, b int) []int32 {
	v := w.rows[a:b]
	return v // want "owned scratch .v. of ws returned from lendView"
}

// lendLoan is the documented-loan escape hatch: suppressed with a reason.
func (w *ws) lendLoan() []float64 {
	//bgr:allow scratch-escape -- loan documented: valid until the next fill
	return w.dist
}

func (w *ws) give(s *stash) {
	s.kept = w.rows[:2] // want "owned scratch .rows. of ws stored into field stash.kept"
}

// keep writes a view into the owner's own field: clean by the same-owner
// rule.
func (w *ws) keep(a, b int) {
	w.rows = w.rows[a:b]
}

func (w *ws) rebind() []int32 {
	grown := append(w.rows, 7) // want "append to owned scratch .rows. of ws rebound to grown"
	return grown
}

// retaint checks the taint flow: v aliases the scratch, escapes via
// return; u is re-bound to a fresh array first, so it is clean.
func (w *ws) retaint(fresh []float64) ([]float64, []float64) {
	v := w.dist[1:]
	u := w.dist[1:]
	u = fresh
	return v, u // want "owned scratch .v. of ws returned from retaint"
}
