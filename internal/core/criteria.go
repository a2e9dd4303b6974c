package core

import (
	"math/bits"
	"time"

	"repro/internal/circuit"
	"repro/internal/rgraph"
)

// delayCrit caches the §3.2 delay criteria of one candidate edge: the
// critical count Cd (eq. 3), the global delay penalty Gl (eq. 4) and the
// local delay increase LD. An entry is valid while the owning net's
// timing epoch is unchanged (see router.timEpoch). Counters are int32 so
// a net's cache line packs more entries (the dcCache arrays are edge-
// aligned and large).
type delayCrit struct {
	gl    float64
	ld    float64
	cd    int32
	tim   int32
	valid bool
}

// candidate is a (net, edge) deletion candidate in the compact int32 form
// the whole selection engine traffics in — matching the CSR index width of
// the timing subgraphs and the density profiles.
type candidate struct {
	net, edge int32
}

// candKey is a candidate's fully evaluated comparison key: the §3.4
// criteria flattened so that ordering two candidates is a plain
// lexicographic comparison (with the fEps tolerance on floats) instead of
// re-deriving delay criteria and density interval stats per comparison.
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
// conditions apply. Ties end at a deterministic index order.
func (r *router) keyLess(ka, kb *candKey, a, b candidate, areaOrder bool) bool {
	if r.cfg.UseConstraints {
		if ka.cd != kb.cd {
			return ka.cd < kb.cd
		}
		if !areaOrder {
			if diff := ka.gl - kb.gl; diff < -fEps || diff > fEps {
				return diff < 0
			}
			if diff := ka.ld - kb.ld; diff < -fEps || diff > fEps {
				return diff < 0
			}
		}
		if c := keyDensCompare(ka, kb); c != 0 {
			return c < 0
		}
		if areaOrder {
			if diff := ka.gl - kb.gl; diff < -fEps || diff > fEps {
				return diff < 0
			}
			if diff := ka.ld - kb.ld; diff < -fEps || diff > fEps {
				return diff < 0
			}
		}
	} else if c := keyDensCompare(ka, kb); c != 0 {
		return c < 0
	}
	if diff := ka.edgeLen - kb.edgeLen; diff < -fEps || diff > fEps {
		return diff > 0 // longer edge preferred for deletion
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
// evaluated key so the cross-net argmin never re-derives criteria. It
// stays valid while (a) the net's timing epoch is unchanged — covering its
// graph, its differential mate and every constraint touching either — and
// (b) none of the channels the net's edges read density criteria from has
// changed.
type netBest struct {
	key       candKey
	chanV     []uint64 // density version snapshots, indexed like netChans[n]
	edge      int32    // best candidate edge id, -1 when the net has none
	tim       int32    // timEpoch snapshot
	areaOrder bool     // criteria ordering the ranking was computed under
	valid     bool
}

// dPrime returns d'(e): the tentative-tree length of the net if edge e
// were deleted (§3.2). Edges outside the current tentative tree cannot
// change any shortest path, so the current length is exact for them
// (TestTentativeCacheAblationExact checks it against LengthExcluding).
func (r *router) dPrime(n, e int) float64 {
	if !r.trees[n].InTree[e] {
		return r.wl[n]
	}
	if r.dpCache[n] == nil {
		r.dpCache[n] = make([]dpEntry, len(r.graphs[n].Edges))
	}
	if ent := &r.dpCache[n][e]; ent.epoch == r.geoEpoch[n] {
		return ent.val
	}
	l, err := r.graphs[n].LengthExcluding(e)
	if err != nil {
		// e turned out to be a bridge (stale candidate); treat as
		// unchanged — selection will skip it next round.
		l = r.wl[n]
	}
	r.dpCache[n][e] = dpEntry{val: l, epoch: r.geoEpoch[n]}
	return l
}

// dpEntry is one cached d'(e) value, valid while the net's geometry epoch
// (alive-edge set) is unchanged.
type dpEntry struct {
	val   float64
	epoch int32
}

// affectedNets lists the nets whose wiring changes when (n, e) is deleted:
// the net itself and its differential mate. The returned slice aliases a
// router-owned two-element buffer — valid until the next call.
func (r *router) affectedNets(n int) []int {
	r.rrNets[0] = n
	if m := r.pairOf[n]; m != circuit.NoNet {
		r.rrNets[1] = m
		//bgr:allow scratch-escape -- documented loan: affectedNets' result aliases rrNets until the next call; both callers consume it immediately
		return r.rrNets[:2]
	}
	//bgr:allow scratch-escape -- documented loan: affectedNets' result aliases rrNets until the next call; both callers consume it immediately
	return r.rrNets[:1]
}

// delayCriteria computes (with caching) the delay criteria of candidate
// (n, e) against the current timing state.
func (r *router) delayCriteria(n, e int) delayCrit {
	if r.dcCache[n] == nil {
		r.dcCache[n] = make([]delayCrit, len(r.graphs[n].Edges))
	}
	c := &r.dcCache[n][e]
	if c.valid && c.tim == r.timEpoch[n] {
		return *c
	}
	out := delayCrit{tim: r.timEpoch[n], valid: true}

	var netsArr [2]int
	netsArr[0] = n
	nn := 1
	if m := r.pairOf[n]; m != circuit.NoNet {
		netsArr[1] = m
		nn = 2
	}
	nets := netsArr[:nn]
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
// selectEdge call into the dirty-net bitset: a channel whose version
// moved invalidates exactly the nets whose candidate graphs touch it
// (chanNetBits). OR-ing masks is order-independent, so the log drains in
// mutation order. An ordering-criterion flip invalidates everything.
// After it returns the superset invariant holds: a clear bit proves
// bestValid without reading any epoch.
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
//
//bgr:hot
func (r *router) selectEdge(restrict []int, areaOrder bool) (candidate, bool) {
	start := time.Now() //bgr:allow clockuse -- profiling only: feeds selStats latency counters, never steers selection
	nNets := len(r.graphs)
	r.drainDensityChanges(areaOrder)

	// Re-score each stale net as the walk reaches it; scoring stamps the
	// cache against the current epochs and density versions, so the net's
	// dirty bit comes down either way. The two explicit loops (restricted
	// and full) would be one closure-driven helper, but the closure forces
	// every captured local to the heap — this is the hottest call site in
	// the router.
	scored := 0
	if restrict != nil {
		for _, n := range restrict {
			if r.dirtyBest[n>>6]&(1<<(uint(n)&63)) == 0 {
				continue
			}
			if !r.bestValid(n, areaOrder) {
				r.scoreNet(n, areaOrder)
				scored++
			}
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
				if !r.bestValid(n, areaOrder) {
					r.scoreNet(n, areaOrder)
					scored++
				}
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

// scoreNet recomputes net n's ranked best candidate and stamps the cache
// with the state it was computed under.
func (r *router) scoreNet(n int, areaOrder bool) {
	b := &r.best[n]
	b.edge = -1
	b.areaOrder = areaOrder
	b.tim = r.timEpoch[n]
	chans := r.netChans[n]
	if cap(b.chanV) < len(chans) {
		b.chanV = make([]uint64, len(chans))
	}
	b.chanV = b.chanV[:len(chans)]
	for i, ch := range chans {
		b.chanV[i] = r.dens.Version(ch)
	}
	if r.nbEpoch[n] != r.geoEpoch[n] {
		r.nbList[n] = r.graphs[n].AppendNonBridges(r.nbList[n][:0])
		r.nbEpoch[n] = r.geoEpoch[n] //bgr:allow epochs -- stamps the just-rebuilt candidate list as fresh; not an invalidation
	}
	nb := r.nbList[n]
	for _, e := range nb {
		c := candidate{net: int32(n), edge: e}
		k := r.keyFor(c)
		if b.edge == -1 || r.keyLess(&k, &b.key, c, candidate{net: int32(n), edge: b.edge}, areaOrder) {
			b.edge, b.key = e, k
		}
	}
	b.valid = true
}

// bestValid reports whether net n's cached ranking still reflects the
// current router state under the requested criteria ordering.
func (r *router) bestValid(n int, areaOrder bool) bool {
	b := &r.best[n]
	if !b.valid || b.areaOrder != areaOrder || b.tim != r.timEpoch[n] {
		return false
	}
	chans := r.netChans[n]
	if len(b.chanV) != len(chans) {
		return false
	}
	for i, ch := range chans {
		if b.chanV[i] != r.dens.Version(ch) {
			return false
		}
	}
	return true
}

const fEps = 1e-9

func (r *router) edgeOf(c candidate) *rgraph.Edge {
	return &r.graphs[c.net].Edges[c.edge]
}
