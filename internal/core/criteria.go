package core

import (
	"math/bits"
	"time"

	"repro/internal/rgraph"
)

// delayCrit caches the §3.2 delay criteria of one candidate edge: the
// critical count Cd (eq. 3), the global delay penalty Gl (eq. 4) and the
// local delay increase LD. An entry is valid while its stamp tim equals
// the owning net's timing epoch (see router.timEpoch), which starts at 1,
// so a zero entry is stale. Counters are int32 so a net's cache line
// packs more entries (the dcCache arrays are edge-aligned and large).
type delayCrit struct {
	gl  float64
	ld  float64
	cd  int32
	tim int32
}

// candidate is a (net, edge) deletion candidate in the compact int32 form
// the whole selection engine traffics in — matching the CSR index width of
// the timing subgraphs and the density profiles.
type candidate struct {
	net, edge int32
}

// candKey is a candidate's fully evaluated comparison key: the §3.4
// criteria flattened so that ordering two candidates is a plain
// lexicographic comparison instead of re-deriving delay criteria and
// density interval stats per comparison.
type candKey struct {
	gl, ld float64
	cd     int32
	trunk  bool
	// The four density differences of conditions 2-5 (channel parameter
	// minus edge interval parameter).
	fm, nm, fM, nM int32
	edgeLen        float64
}

// keyFor evaluates a candidate's comparison key against the current state.
func (r *router) keyFor(c candidate) candKey {
	var k candKey
	if r.cfg.UseConstraints {
		dc := r.delayCriteria(int(c.net), int(c.edge))
		k.cd, k.gl, k.ld = dc.cd, dc.gl, dc.ld
	}
	ed := r.edgeOf(c)
	k.trunk = ed.Kind == rgraph.ETrunk
	cs := r.dens.Channel(ed.Ch)
	es := r.dens.Edge(ed.Ch, ed.X1, ed.X2)
	k.fm = int32(cs.Cm - es.Dm)
	k.nm = int32(cs.NCm - es.NDm)
	k.fM = int32(cs.CM - es.DM)
	k.nM = int32(cs.NCM - es.NDM)
	k.edgeLen = ed.Len
	return k
}

// keyLess reports whether candidate a should be deleted in preference to
// b, given their evaluated keys.
//
// Initial/delay ordering (§3.4): Cd, Gl, LD, then the five density
// conditions, then the longer edge. Area ordering (§3.5): Cd, density
// conditions, Gl, LD, longer edge. Without constraints only the density
// conditions apply. Ties end at a deterministic index order. Every field
// compares exactly, so over finite keys this is a strict total order and
// an argmin returns the same candidate in any scan order.
func (r *router) keyLess(ka, kb *candKey, a, b candidate, areaOrder bool) bool {
	if r.cfg.UseConstraints {
		if ka.cd != kb.cd {
			return ka.cd < kb.cd
		}
		if !areaOrder {
			if ka.gl != kb.gl {
				return ka.gl < kb.gl
			}
			if ka.ld != kb.ld {
				return ka.ld < kb.ld
			}
		}
		if c := keyDensCompare(ka, kb); c != 0 {
			return c < 0
		}
		if areaOrder {
			if ka.gl != kb.gl {
				return ka.gl < kb.gl
			}
			if ka.ld != kb.ld {
				return ka.ld < kb.ld
			}
		}
	} else if c := keyDensCompare(ka, kb); c != 0 {
		return c < 0
	}
	if ka.edgeLen != kb.edgeLen {
		return ka.edgeLen > kb.edgeLen // longer edge preferred for deletion
	}
	if a.net != b.net {
		return a.net < b.net
	}
	return a.edge < b.edge
}

// keyDensCompare applies the five §3.4 density conditions to evaluated
// keys; negative means a wins, positive means b wins, zero is a tie.
func keyDensCompare(ka, kb *candKey) int {
	// Condition 1: prefer a trunk edge over any other kind — deleting a
	// trunk directly reduces channel density.
	if ka.trunk != kb.trunk {
		if ka.trunk {
			return -1
		}
		return 1
	}
	switch {
	// Condition 2: F_m = C_m(c) − D_m(e), smaller first (do not grow the
	// unavoidable density C_m).
	case ka.fm != kb.fm:
		if ka.fm < kb.fm {
			return -1
		}
		return 1
	// Condition 3: N_m = NC_m(c) − ND_m(e), smaller first.
	case ka.nm != kb.nm:
		if ka.nm < kb.nm {
			return -1
		}
		return 1
	// Condition 4: C_M(c) − D_M(e), smaller first (greedy reduction of
	// the worst channel).
	case ka.fM != kb.fM:
		if ka.fM < kb.fM {
			return -1
		}
		return 1
	// Condition 5: NC_M(c) − ND_M(e), smaller first.
	case ka.nM != kb.nM:
		if ka.nM < kb.nM {
			return -1
		}
		return 1
	}
	return 0
}

// netBest is one net's cached selection result: the edge the §3.4/§3.5
// total order ranks first among the net's own candidates, plus its
// evaluated key so the cross-net argmin never re-derives criteria. It is
// current while the net's dirty bit is clear (see router.dirtyBest): the
// bit goes up whenever anything the ranking reads changes — the net's
// timing epoch (its graph, its differential mate, every constraint
// touching either), the density of a channel holding one of its
// candidates, or the criteria ordering.
type netBest struct {
	key  candKey
	edge int32 // best candidate edge id, -1 when the net has none
}

// dPrime returns d'(e): the tentative-tree length of the net if edge e
// were deleted (§3.2). Edges outside the current tentative tree cannot
// change any shortest path, so the current length is exact for them
// (TestTentativeCacheAblationExact checks it against LengthExcluding);
// a tree edge costs one Dijkstra run. There is no memo: one that outlived
// margin changes hit under 1% of lookups (docs/PERF.md).
func (r *router) dPrime(n, e int) float64 {
	if !r.trees[n].InTree[e] {
		return r.wl[n]
	}
	l, err := r.graphs[n].LengthExcluding(e)
	if err != nil {
		// e turned out to be a bridge (stale candidate); treat as
		// unchanged — selection will skip it next round.
		return r.wl[n]
	}
	return l
}

// delayCriteria computes (with caching) the delay criteria of candidate
// (n, e) against the current timing state. Net n's cache line is sized
// here to its current graph, so a rebuild that changed the edge count
// needs no separate resize; entries left from an older graph carry an
// older timing epoch and read as stale.
func (r *router) delayCriteria(n, e int) delayCrit {
	cache := r.dcCache[n]
	if ne := len(r.graphs[n].Edges); len(cache) != ne {
		if cap(cache) < ne {
			cache = make([]delayCrit, ne)
		}
		cache = cache[:ne]
		r.dcCache[n] = cache
	}
	c := &cache[e]
	if c.tim == r.timEpoch[n] {
		return *c
	}
	out := delayCrit{tim: r.timEpoch[n]}

	pair, k := r.withMate(n)
	nets := pair[:k]
	// A net (pair) touching no constraint has identically zero criteria:
	// the P(e) loop below would not execute, so skip the d' Dijkstra runs.
	hasCons := false
	for _, a := range nets {
		if len(r.dg.ConsOfNet(a)) > 0 {
			hasCons = true
			break
		}
	}
	if !hasCons {
		*c = out
		return out
	}
	// New and current lumped arc delays per affected net. The LM criteria
	// use the lumped form even under the Elmore model; the paper notes
	// the heuristics are independent of the delay-model choice.
	type netDelta struct {
		net        int
		dNew, dCur float64
	}
	var deltas [2]netDelta
	nd := 0
	for _, a := range nets {
		dNewLen := r.dPrime(a, e)
		deltas[nd] = netDelta{
			net:  a,
			dNew: r.dg.LumpedArcDelay(a, dNewLen),
			dCur: r.dg.LumpedArcDelay(a, r.wl[a]),
		}
		nd++
	}
	// P(e): constraints whose Gd(P) contains arcs of any affected net,
	// deduplicated with the router's generation-stamped marks.
	r.consGen++
	for _, a := range nets {
		for _, p := range r.dg.ConsOfNet(a) {
			if r.consMark[p] == r.consGen {
				continue
			}
			r.consMark[p] = r.consGen
			margin := r.tm.Cons[p].Margin
			tau := r.ckt.Cons[p].Limit
			var worst float64
			for _, d := range deltas[:nd] {
				if dd := r.tm.DeltaIfNetDelay(p, d.net, d.dNew); dd > worst {
					worst = dd
				}
			}
			lm := margin - worst // eq. 2
			if lm <= 0 {
				out.cd++
			}
			out.gl += pen(lm, tau) - pen(margin, tau)
			for _, d := range deltas[:nd] {
				if inc := d.dNew - d.dCur; inc > 0 {
					out.ld += inc * float64(r.dg.ArcsInGd(p, d.net))
				}
			}
		}
	}
	*c = out
	return out
}

// drainDensityChanges folds the density mutations since the last
// selectEdge call into the dirty-net bitset: a changed channel
// invalidates exactly the nets with a candidate in it (chanNetBits).
// OR-ing masks is order-independent, so the log drains in mutation
// order. An ordering-criterion flip invalidates everything. After it
// returns, every net whose cached best could differ from a fresh
// scoreNet has its bit set.
func (r *router) drainDensityChanges(areaOrder bool) {
	for _, ch := range r.dens.TakeChanged() {
		row := r.chanNetBits[ch]
		for w, m := range row {
			r.dirtyBest[w] |= m
		}
	}
	if areaOrder != r.lastAreaOrd {
		for w := range r.dirtyBest {
			r.dirtyBest[w] = ^uint64(0)
		}
		r.lastAreaOrd = areaOrder
	}
}

// selectEdge returns the deletion candidate the §3.4 (or §3.5 area)
// heuristics choose over the given nets (nil means all) — the same argmin
// the full scan produced, computed incrementally: each net's ranked best
// is cached and re-scored only when something it depends on changed. A
// net's best is a pure function of the router state, and the cross-net
// argmin runs in net-index order, so the result is deterministic. ok is
// false when no non-bridge edge remains.
func (r *router) selectEdge(restrict []int, areaOrder bool) (candidate, bool) {
	start := time.Now() //bgr:allow clockuse -- profiling only: feeds selStats latency counters, never steers selection
	nNets := len(r.graphs)
	r.drainDensityChanges(areaOrder)

	// Re-score each dirty net as the walk reaches it and bring its bit
	// down. The two explicit loops (restricted and full) would be one
	// closure-driven helper, but the closure forces every captured local
	// to the heap — this is the hottest call site in the router.
	scored := 0
	if restrict != nil {
		for _, n := range restrict {
			if r.dirtyBest[n>>6]&(1<<(uint(n)&63)) == 0 {
				continue
			}
			r.scoreNet(n, areaOrder)
			scored++
			r.clearBestDirty(n)
		}
	} else {
		// Walk only the set bits.
		for w, word := range r.dirtyBest {
			for word != 0 {
				n := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				if n >= nNets {
					break
				}
				r.scoreNet(n, areaOrder)
				scored++
				r.clearBestDirty(n)
			}
		}
	}

	// Cross-net argmin over the cached per-net bests — pure key
	// comparisons, nothing recomputed.
	best := candidate{net: -1}
	var bestKey *candKey
	if restrict != nil {
		for _, n := range restrict {
			b := &r.best[n]
			if b.edge < 0 {
				continue
			}
			c := candidate{net: int32(n), edge: b.edge}
			if best.net == -1 || r.keyLess(&b.key, bestKey, c, best, areaOrder) {
				best, bestKey = c, &b.key
			}
		}
	} else {
		for n := 0; n < nNets; n++ {
			b := &r.best[n]
			if b.edge < 0 {
				continue
			}
			c := candidate{net: int32(n), edge: b.edge}
			if best.net == -1 || r.keyLess(&b.key, bestKey, c, best, areaOrder) {
				best, bestKey = c, &b.key
			}
		}
	}

	scanned := nNets
	if restrict != nil {
		scanned = len(restrict)
	}
	r.selStat.calls++
	r.selStat.scored += scored
	r.selStat.reused += scanned - scored
	r.selStat.dur += time.Since(start) //bgr:allow clockuse -- profiling only: feeds selStats latency counters, never steers selection
	return best, best.net != -1
}

// scoreNet recomputes net n's ranked best candidate over its candidate
// list.
func (r *router) scoreNet(n int, areaOrder bool) {
	b := &r.best[n]
	b.edge = -1
	for _, e := range r.nbList[n] {
		c := candidate{net: int32(n), edge: e}
		k := r.keyFor(c)
		if b.edge == -1 || r.keyLess(&k, &b.key, c, candidate{net: int32(n), edge: b.edge}, areaOrder) {
			b.edge, b.key = e, k
		}
	}
}

func (r *router) edgeOf(c candidate) *rgraph.Edge {
	return &r.graphs[c.net].Edges[c.edge]
}
