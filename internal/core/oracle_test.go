package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
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

// TestSelectEdgeMatchesFullRescore is the selection oracle. It checks
// selections against an argmin built from scratch with every cache
// bypassed: no dcCache entry, cached best or dirty bit is read. Each
// check also compares the cached best of every net in scope, and every
// current dcCache entry of a candidate, with the from-scratch values.
//
// The caseNN subtests drive the initial phase step by step on random
// circuits, constrained and not. Restricted selections over random net
// subsets and flips of the ranking order are interleaved, as the reroute
// phases and AreaFirst produce them, and so are §3.5 rip-ups
// (ripUpStep): tryReroute rebuilds a net or pair, routes it and keeps or
// restores it, sometimes with a feed moved so that the rebuilt graph
// changes its edge count. sampleDiffTaps adds lock-step deletions of
// differential mates, which the generated circuits never make. The
// phases/ subtests route the same circuits through the §3.5 phases
// (constrained, with AreaFirst, and unconstrained) under oracleCtx,
// which checks every point at which the router asks its context.
func TestSelectEdgeMatchesFullRescore(t *testing.T) {
	var total ripUpStats
	cases := oracleCases()
	ran := 0
	for ci, params := range cases {
		t.Run(fmt.Sprintf("case%02d", ci), func(t *testing.T) {
			ran++
			ckt, err := gen.Generate(params)
			if err != nil {
				t.Fatal(err)
			}
			total.add(runOracle(t, ckt, Config{UseConstraints: ci/2%2 == 0}, ci%3 == 0, int64(7000+ci)))
		})
	}
	for _, constrained := range []bool{true, false} {
		t.Run(fmt.Sprintf("diff-taps/constrained=%v", constrained), func(t *testing.T) {
			ran++
			total.add(runOracle(t, sampleDiffTaps(), Config{UseConstraints: constrained}, false, 61))
		})
	}
	var checks, reroutes int
	for ci, params := range cases {
		for _, cfg := range []struct {
			name string
			cfg  Config
		}{
			{"constrained", Config{UseConstraints: true}},
			{"area-first", Config{UseConstraints: true, AreaFirst: true}},
			{"unconstrained", Config{}},
		} {
			t.Run(fmt.Sprintf("phases/case%02d/%s", ci, cfg.name), func(t *testing.T) {
				ran++
				ckt, err := gen.Generate(params)
				if err != nil {
					t.Fatal(err)
				}
				c, rr := routeUnderOracle(t, ckt, cfg.cfg)
				checks += c
				reroutes += rr
			})
		}
	}
	t.Logf("rip-ups %d: %d with a moved feed, %d kept, %d kept with a new edge count",
		total.ripUps, total.moved, total.kept, total.resized)
	t.Logf("§3.5 phases: %d oracle checks, %d reroutes", checks, reroutes)
	if ran < 4*len(cases)+2 {
		return // a -run filter picked some cases: the totals cover those only
	}
	if total.moved == 0 || total.kept == 0 || total.kept == total.ripUps || total.resized == 0 {
		t.Fatalf("rip-up steps do not cover moved feeds, kept and restored attempts and resized graphs: %+v", total)
	}
	if reroutes == 0 {
		t.Fatal("the §3.5 phases under the oracle made no reroute")
	}
}

// oracleCtx is the context of the §3.5 phases under the oracle. The
// router asks its context as each phase starts, before every reroute of a
// sweep and before every selection inside tryReroute; each ask runs
// checkSelection over every net, in the ranking order of the router's
// last selection, and never cancels.
type oracleCtx struct {
	context.Context
	t      *testing.T
	r      *router
	checks int
}

func (c *oracleCtx) Err() error {
	checkSelection(c.t, c.r, nil, c.r.lastAreaOrd, c.checks)
	c.checks++
	return nil
}

// routeUnderOracle routes ckt as RouteCtx does, with the §3.5 phases
// under an oracleCtx; runOracle covers the initial phase step by step. It
// returns the number of oracle checks and of reroutes.
func routeUnderOracle(t *testing.T, ckt *circuit.Circuit, cfg Config) (checks, reroutes int) {
	t.Helper()
	r := newTestRouter(t, ckt, cfg)
	if err := r.runPhase("initial", r.initialRouting); err != nil {
		t.Fatal(err)
	}
	ctx := &oracleCtx{Context: context.Background(), t: t, r: r}
	r.ctx = ctx
	if err := r.improve(routePhases); err != nil {
		t.Fatal(err)
	}
	for _, ps := range r.phases {
		reroutes += ps.Reroutes
	}
	return ctx.checks, reroutes
}

// ripUpStats counts the rip-up steps of oracle runs.
type ripUpStats struct {
	ripUps  int // tryReroute calls
	moved   int // of them, with one feed moved
	kept    int // of them, accepted
	resized int // of the accepted, with a rebuilt graph of a new edge count
}

func (s *ripUpStats) add(o ripUpStats) {
	s.ripUps += o.ripUps
	s.moved += o.moved
	s.kept += o.kept
	s.resized += o.resized
}

// runOracle routes ckt's initial phase under the oracle, ranking in
// areaOrder except where a random flip interleaves the other order. A
// second random stream, so that the selection steps draw as they would
// without them, interleaves rip-up steps; after each one every net and
// the rerouted nets are checked.
func runOracle(t *testing.T, ckt *circuit.Circuit, cfg Config, areaOrder bool, seed int64) ripUpStats {
	t.Helper()
	r := newTestRouter(t, ckt, cfg)
	rng := rand.New(rand.NewSource(seed))
	ripRng := rand.New(rand.NewSource(seed + 1_000_000))
	nNets := len(r.graphs)
	deletions := 0
	var st ripUpStats
	for step := 0; ; step++ {
		if rng.Intn(3) == 0 {
			k := 1 + rng.Intn(min(6, nNets))
			subset := rng.Perm(nNets)[:k]
			checkSelection(t, r, subset, rng.Intn(2) == 0, step)
		}
		if ripRng.Intn(4) == 0 {
			nets := ripUpStep(t, r, ripRng, step, &st)
			checkSelection(t, r, nil, ripRng.Intn(2) == 0, step)
			checkSelection(t, r, nets, ripRng.Intn(2) == 0, step)
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
	return st
}

// ripUpStep rips up a random net and its differential mate with
// tryReroute under a verdict drawn in advance, and returns the nets. About
// half the attempts first move one feed of an unpaired single-pitch net
// to another free slot of its row (moveOneFeed).
func ripUpStep(t *testing.T, r *router, rng *rand.Rand, step int, st *ripUpStats) []int {
	t.Helper()
	n := rng.Intn(len(r.graphs))
	pair, k := r.withMate(n)
	nets := pair[:k]
	var alt [][]rgraph.FeedPos
	if rng.Intn(2) == 0 {
		alt = moveOneFeed(r, rng, n)
	}
	keep := rng.Intn(2) == 0
	nEdges := len(r.graphs[n].Edges)
	kept, err := r.tryReroute(nets, alt, rng.Intn(2) == 0, func(before, after objective) bool { return keep })
	if err != nil {
		t.Fatalf("step %d: rip-up of net %d: %v", step, n, err)
	}
	st.ripUps++
	if alt != nil {
		st.moved++
	}
	if kept {
		st.kept++
		if len(r.graphs[n].Edges) != nEdges {
			st.resized++
		}
	}
	return nets
}

// moveOneFeed returns net n's feeds with one of them moved to another
// free slot of its row, as tryReroute's alternative feeds, or nil when n
// is paired or wider than one pitch, has no feed, or the row has no free
// slot.
func moveOneFeed(r *router, rng *rand.Rand, n int) [][]rgraph.FeedPos {
	feeds := r.feeds[n]
	if r.pairOf[n] != circuit.NoNet || r.ckt.Nets[n].Pitch != 1 || len(feeds) == 0 {
		return nil
	}
	i := rng.Intn(len(feeds))
	row := feeds[i].Row
	var free []int
	for _, s := range r.geo.FeedSlots(row) {
		if r.slotOwnerAt(row, s.Col) < 0 {
			free = append(free, s.Col)
		}
	}
	if len(free) == 0 {
		return nil
	}
	alt := append([]rgraph.FeedPos(nil), feeds...)
	alt[i].Col = free[rng.Intn(len(free))]
	return [][]rgraph.FeedPos{alt}
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
	var d *density.State // a recount, made when the first candidate needs it
	want := candidate{net: -1}
	var wantKey candKey
	for _, n := range nets {
		nb := netBest{edge: -1}
		for _, e := range r.graphs[n].NonBridges() {
			if d == nil {
				d = r.recount()
			}
			c := candidate{net: int32(n), edge: int32(e)}
			k := oracleKey(t, r, d, c)
			if dc := r.dcCache[n]; e < len(dc) && dc[e].tim == r.timEpoch[n] && (dc[e].cd != k.cd || dc[e].gl != k.gl || dc[e].ld != k.ld) {
				t.Fatalf("step %d: net %d edge %d cached delay criteria %+v, oracle cd %d gl %v ld %v",
					step, n, e, dc[e], k.cd, k.gl, k.ld)
			}
			if nb.edge == -1 || r.keyLess(&k, &nb.key, c, candidate{net: int32(n), edge: nb.edge}, areaOrder) {
				nb = netBest{key: k, edge: int32(e)}
			}
			if want.net == -1 || r.keyLess(&k, &wantKey, c, want, areaOrder) {
				want, wantKey = c, k
			}
		}
		if b := r.best[n]; b.edge != nb.edge || nb.edge != -1 && b.key != nb.key {
			t.Fatalf("step %d (restrict %v, areaOrder %v): net %d cached best edge %d key %+v, oracle edge %d key %+v",
				step, restrict, areaOrder, n, b.edge, b.key, nb.edge, nb.key)
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
	n, e := int(c.net), int(c.edge)
	var k candKey
	if r.cfg.UseConstraints {
		nets := []int{n}
		if m := r.pairOf[n]; m != circuit.NoNet {
			nets = append(nets, m)
		}
		// New and current lumped arc delays of each half of the pair.
		var dNew, dCur [2]float64
		for i, a := range nets {
			l, err := r.graphs[a].LengthExcluding(e)
			if err != nil {
				t.Fatalf("net %d edge %d: %v", a, e, err)
			}
			dNew[i] = r.dg.LumpedArcDelay(a, l)
			dCur[i] = r.dg.LumpedArcDelay(a, r.wl[a])
		}
		for i, a := range nets {
			for _, p := range r.dg.ConsOfNet(a) {
				if i == 1 && slices.Contains(r.dg.ConsOfNet(n), p) {
					continue // counted with the first half
				}
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
