package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/density"
	"repro/internal/gen"
	"repro/internal/rgraph"
)

// oracleCases are small random circuits spanning both placement styles,
// differential pairs, multi-sink constraints and datapath synthesis.
func oracleCases() []gen.Params {
	var out []gen.Params
	for i := 0; i < 50; i++ {
		p := gen.Params{
			Name:        "oracle",
			Seed:        int64(5000 + 31*i),
			Cells:       50 + 12*(i%10),
			Rows:        2 + i%4,
			SeqFrac:     0.15 + 0.02*float64(i%3),
			AvgFanout:   1.2 + 0.3*float64(i%3),
			Locality:    6 + i%10,
			PIs:         3 + i%4,
			POs:         3 + i%3,
			DiffPairs:   i % 3,
			FeedFrac:    0.2,
			Constraints: 2 + i%6,
			LimitFactor: 1.05 + 0.05*float64(i%4),
			MultiSink:   i%2 == 0,
			Datapath:    i%9 == 4,
		}
		if i%2 == 1 {
			p.Style = gen.P2
		}
		out = append(out, p)
	}
	return out
}

// TestSelectEdgeMatchesFullRescore is the selection oracle. It drives the
// initial phase step by step on random circuits, constrained and not,
// and checks every selection against an argmin built from scratch with
// every cache bypassed: no dcCache, dpCache, cached best or dirty bit is
// read. Restricted selections over random net subsets and flips of the
// ranking order are interleaved, as the reroute phases and AreaFirst
// produce them. keyLess compares floats within fEps, which is not
// transitive, so the oracle folds exactly as selectEdge does — per net in
// candidate order, then across nets in list order — and any disagreement
// comes from the caches. sampleDiffTaps adds lock-step deletions of
// differential mates, which the generated circuits never make.
func TestSelectEdgeMatchesFullRescore(t *testing.T) {
	for ci, params := range oracleCases() {
		t.Run(fmt.Sprintf("case%02d", ci), func(t *testing.T) {
			ckt, err := gen.Generate(params)
			if err != nil {
				t.Fatal(err)
			}
			runOracle(t, ckt, Config{UseConstraints: ci/2%2 == 0}, ci%3 == 0, int64(7000+ci))
		})
	}
	for _, constrained := range []bool{true, false} {
		t.Run(fmt.Sprintf("diff-taps/constrained=%v", constrained), func(t *testing.T) {
			runOracle(t, sampleDiffTaps(), Config{UseConstraints: constrained}, false, 61)
		})
	}
}

// runOracle routes ckt's initial phase under the oracle, ranking in
// areaOrder except where a random flip interleaves the other order.
func runOracle(t *testing.T, ckt *circuit.Circuit, cfg Config, areaOrder bool, seed int64) {
	t.Helper()
	r := newTestRouter(t, ckt, cfg)
	rng := rand.New(rand.NewSource(seed))
	nNets := len(r.graphs)
	deletions := 0
	for step := 0; ; step++ {
		if rng.Intn(3) == 0 {
			k := 1 + rng.Intn(min(6, nNets))
			subset := rng.Perm(nNets)[:k]
			checkSelection(t, r, subset, rng.Intn(2) == 0, step)
		}
		order := areaOrder
		if rng.Intn(6) == 0 {
			order = !order
		}
		best, ok := checkSelection(t, r, nil, order, step)
		if !ok {
			break
		}
		if err := r.deleteEdge(int(best.net), int(best.edge)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		deletions++
	}
	if deletions == 0 {
		t.Fatal("no deletions exercised")
	}
}

// checkSelection runs selectEdge over restrict (nil means every net in
// index order, as the initial phase selects) and compares its result,
// and the cached best of every net in scope, with the oracle.
func checkSelection(t *testing.T, r *router, restrict []int, areaOrder bool, step int) (candidate, bool) {
	t.Helper()
	got, gotOK := r.selectEdge(restrict, areaOrder)
	nets := restrict
	if nets == nil {
		nets = allNets(len(r.graphs))
	}
	d := r.recount()
	want := candidate{net: -1}
	var wantKey candKey
	for _, n := range nets {
		nb := netBest{edge: -1}
		for _, e := range r.graphs[n].NonBridges() {
			c := candidate{net: int32(n), edge: int32(e)}
			k := oracleKey(t, r, d, c)
			if nb.edge == -1 || r.keyLess(&k, &nb.key, c, candidate{net: int32(n), edge: nb.edge}, areaOrder) {
				nb = netBest{key: k, edge: int32(e)}
			}
		}
		if b := r.best[n]; b.edge != nb.edge || nb.edge != -1 && b.key != nb.key {
			t.Fatalf("step %d (restrict %v, areaOrder %v): net %d cached best edge %d key %+v, oracle edge %d key %+v",
				step, restrict, areaOrder, n, b.edge, b.key, nb.edge, nb.key)
		}
		if nb.edge == -1 {
			continue
		}
		if c := (candidate{net: int32(n), edge: nb.edge}); want.net == -1 || r.keyLess(&nb.key, &wantKey, c, want, areaOrder) {
			want, wantKey = c, nb.key
		}
	}
	if gotOK != (want.net != -1) || gotOK && got != want {
		t.Fatalf("step %d (restrict %v, areaOrder %v): selectEdge chose %v (ok %v), oracle %v",
			step, restrict, areaOrder, got, gotOK, want)
	}
	return got, gotOK
}

// oracleKey evaluates candidate c's comparison key from the routing state
// alone: the delay criteria are recomputed with every d′ taken from
// LengthExcluding, and the density terms are read from d, a recount of
// the graphs.
func oracleKey(t *testing.T, r *router, d *density.State, c candidate) candKey {
	t.Helper()
	n, e := int(c.net), int(c.edge)
	var k candKey
	if r.cfg.UseConstraints {
		nets := []int{n}
		if m := r.pairOf[n]; m != circuit.NoNet {
			nets = append(nets, m)
		}
		// New and current lumped arc delays of each half of the pair.
		dNew := make([]float64, len(nets))
		dCur := make([]float64, len(nets))
		for i, a := range nets {
			l, err := r.graphs[a].LengthExcluding(e)
			if err != nil {
				t.Fatalf("net %d edge %d: %v", a, e, err)
			}
			dNew[i] = r.dg.LumpedArcDelay(a, l)
			dCur[i] = r.dg.LumpedArcDelay(a, r.wl[a])
		}
		seen := make(map[int]bool)
		for _, a := range nets {
			for _, p := range r.dg.ConsOfNet(a) {
				if seen[p] {
					continue
				}
				seen[p] = true
				margin := r.tm.Cons[p].Margin
				tau := r.ckt.Cons[p].Limit
				var worst float64
				for i, b := range nets {
					if dd := r.tm.DeltaIfNetDelay(p, b, dNew[i]); dd > worst {
						worst = dd
					}
				}
				lm := margin - worst
				if lm <= 0 {
					k.cd++
				}
				k.gl += pen(lm, tau) - pen(margin, tau)
				for i, b := range nets {
					if inc := dNew[i] - dCur[i]; inc > 0 {
						k.ld += inc * float64(r.dg.ArcsInGd(p, b))
					}
				}
			}
		}
	}
	ed := &r.graphs[n].Edges[e]
	k.trunk = ed.Kind == rgraph.ETrunk
	cs := d.Channel(ed.Ch)
	es := d.Edge(ed.Ch, ed.X1, ed.X2)
	k.fm = int32(cs.Cm - es.Dm)
	k.nm = int32(cs.NCm - es.NDm)
	k.fM = int32(cs.CM - es.DM)
	k.nM = int32(cs.NCM - es.NDM)
	k.edgeLen = ed.Len
	return k
}
