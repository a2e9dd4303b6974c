package dgraph

// Test-only views of the graph's internal indexes, for the external tests
// that compare two graphs.

// NetArcs returns the arc indices of net n, in fan-out order.
func (g *Graph) NetArcs(n int) []int { return g.netArcs[n] }

// ConsSets returns constraint p's source and sink vertices and, per
// vertex, whether it is reachable from a source and whether it reaches a
// sink.
func (g *Graph) ConsSets(p int) (srcs, sinks []int, inS, toT []bool) {
	c := &g.cons[p]
	return c.srcs, c.sinks, c.inS, c.toT
}
