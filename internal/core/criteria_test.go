package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/rgraph"
)

// newTestRouter builds the router state (feed assignment, graphs, timing,
// density) without running any routing phase.
func newTestRouter(t testing.TB, ckt *circuit.Circuit, cfg engine.Config) *router {
	t.Helper()
	r, err := newRouter(context.Background(), ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPenFunction(t *testing.T) {
	tau := 500.0
	if got := pen(0, tau); got != 1 {
		t.Fatalf("pen(0) = %v, want 1", got)
	}
	if got := pen(tau, tau); got != 0 {
		t.Fatalf("pen(tau) = %v, want 0", got)
	}
	if got := pen(-tau, tau); math.Abs(got-math.E) > 1e-12 {
		t.Fatalf("pen(-tau) = %v, want e", got)
	}
	// Monotone decreasing in slack, continuous at 0.
	prev := math.Inf(1)
	for x := -2 * tau; x <= 2*tau; x += tau / 8 {
		v := pen(x, tau)
		if v > prev {
			t.Fatalf("pen not monotone at %v", x)
		}
		prev = v
	}
	if diff := pen(-1e-12, tau) - pen(1e-12, tau); math.Abs(diff) > 1e-9 {
		t.Fatalf("pen discontinuous at 0: %v", diff)
	}
}

// TestPenaltyFiniteOnTinyLimits routes the five data sets with every
// constraint limit scaled by 0.001, to at most 2 ps, as a ps/ns slip in
// a submitted circuit gives them; circuit.Validate accepts them. Margins
// then pass -700τ, and every Gl the route scores must still be a number:
// with an uncapped pen, thousands are NaN. The check runs at every point
// the router asks its context, which covers every selection.
func TestPenaltyFiniteOnTinyLimits(t *testing.T) {
	for _, name := range []string{"C1P1", "C1P2", "C2P1", "C2P2", "C3P1"} {
		t.Run(name, func(t *testing.T) {
			ckt := genDataset(t, name)
			for p := range ckt.Cons {
				ckt.Cons[p].Limit *= 0.001
			}
			r := newTestRouter(t, ckt, engine.Config{UseConstraints: true})
			ctx := &nanCtx{Context: context.Background(), t: t, r: r}
			r.ctx = ctx
			if err := r.runPhase("initial", r.initialRouting); err != nil {
				t.Fatal(err)
			}
			if err := r.improve(routePhases); err != nil {
				t.Fatal(err)
			}
			if ctx.scored == 0 {
				t.Fatal("the route scored no constrained candidate")
			}
		})
	}
}

// nanCtx fails its test when a scored delay-criteria entry holds a NaN
// Gl, and counts the scored entries it saw. It never cancels.
type nanCtx struct {
	context.Context
	t      *testing.T
	r      *router
	scored int
}

func (c *nanCtx) Err() error {
	for n, line := range c.r.dcCache {
		for e := range line {
			if math.IsNaN(line[e].gl) {
				c.t.Fatalf("net %d edge %d: Gl is NaN", n, e)
			}
			if line[e].tim != 0 {
				c.scored++
			}
		}
	}
	return nil
}

func TestDPrimeMatchesLengthExcluding(t *testing.T) {
	r := newTestRouter(t, circuit.SampleSmall(), engine.Config{UseConstraints: true})
	for n, g := range r.graphs {
		for _, e := range g.NonBridges() {
			want := r.wl[n]
			if r.trees[n].InTree[e] {
				var err error
				want, err = g.LengthExcluding(e)
				if err != nil {
					t.Fatalf("net %d edge %d: %v", n, e, err)
				}
			}
			if got := r.dPrime(n, e); math.Abs(got-want) > 1e-9 {
				t.Fatalf("net %d edge %d: dPrime %v, want %v", n, e, got, want)
			}
		}
	}
}

func TestDelayCriteriaZeroForHarmlessEdges(t *testing.T) {
	r := newTestRouter(t, circuit.SampleSmall(), engine.Config{UseConstraints: true})
	for n, g := range r.graphs {
		if len(r.dg.ConsOfNet(n)) > 0 {
			continue // only check nets on no constrained path
		}
		for _, e := range g.NonBridges() {
			c := r.delayCriteria(n, e)
			if c.cd != 0 || c.gl != 0 || c.ld != 0 {
				t.Fatalf("net %s (unconstrained) edge %d has criteria %+v",
					r.ckt.Nets[n].Name, e, c)
			}
		}
	}
}

func TestDelayCriteriaNonNegative(t *testing.T) {
	r := newTestRouter(t, circuit.SampleSmall(), engine.Config{UseConstraints: true})
	for n, g := range r.graphs {
		for _, e := range g.NonBridges() {
			c := r.delayCriteria(n, e)
			if c.cd < 0 || c.gl < -1e-12 || c.ld < 0 {
				t.Fatalf("negative criteria %+v for net %d edge %d", c, n, e)
			}
		}
	}
}

func TestDelayCriteriaCacheConsistent(t *testing.T) {
	r := newTestRouter(t, circuit.SampleSmall(), engine.Config{UseConstraints: true})
	n := 1
	e := r.graphs[n].NonBridges()[0]
	a := r.delayCriteria(n, e)
	b := r.delayCriteria(n, e) // cached
	if a != b {
		t.Fatalf("cache changed the answer: %+v vs %+v", a, b)
	}
	// Mutating the net invalidates: delete a different edge and recheck
	// validity flags rather than values.
	nb := r.graphs[n].NonBridges()
	if err := r.deleteEdge(n, nb[len(nb)-1]); err != nil {
		t.Fatal(err)
	}
	c := r.delayCriteria(n, e)
	if c.tim != r.timEpoch[n] {
		t.Fatal("cache not refreshed after epoch bump")
	}
}

func TestSelectEdgePrefersHarmless(t *testing.T) {
	// The selected edge must have the (lexicographically) smallest delay
	// criteria among all candidates.
	r := newTestRouter(t, circuit.SampleSmall(), engine.Config{UseConstraints: true})
	best, ok := r.selectEdge(nil, false)
	if !ok {
		t.Fatal("no candidates")
	}
	bc := r.delayCriteria(int(best.net), int(best.edge))
	for n, g := range r.graphs {
		for _, e := range g.NonBridges() {
			c := r.delayCriteria(n, e)
			if c.cd < bc.cd {
				t.Fatalf("selected Cd=%d but edge (%d,%d) has Cd=%d", bc.cd, n, e, c.cd)
			}
			if c.cd == bc.cd && c.gl < bc.gl {
				t.Fatalf("selected Gl=%v but edge (%d,%d) has Gl=%v", bc.gl, n, e, c.gl)
			}
		}
	}
}

func TestLessIsStrictWeakOrder(t *testing.T) {
	r := newTestRouter(t, circuit.SampleSmall(), engine.Config{UseConstraints: true})
	var cands []candidate
	var keys []candKey
	for n, g := range r.graphs {
		for _, e := range g.NonBridges() {
			c := candidate{int32(n), int32(e)}
			cands = append(cands, c)
			keys = append(keys, r.keyFor(c))
		}
	}
	for i, a := range cands {
		if r.keyLess(&keys[i], &keys[i], a, a, false) {
			t.Fatalf("keyLess(a,a) true for %+v", a)
		}
	}
	// Antisymmetry on a sample of pairs.
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j += 3 {
			ab := r.keyLess(&keys[i], &keys[j], cands[i], cands[j], false)
			ba := r.keyLess(&keys[j], &keys[i], cands[j], cands[i], false)
			if ab && ba {
				t.Fatalf("keyLess not antisymmetric for %+v / %+v", cands[i], cands[j])
			}
			if !ab && !ba {
				t.Fatalf("unresolved tie (index fallback broken) for %+v / %+v", cands[i], cands[j])
			}
		}
	}

	// Crafted keys whose Gl, LD and edge lengths differ by less than 1e-9
	// and by more: a tolerance on any float field makes three of them
	// (say Gl 0, 0.6e-9, 1.2e-9 with LD 3, 2, 1) sort in a cycle.
	cands, keys = cands[:0], keys[:0]
	for i := 0; i < 40; i++ {
		cands = append(cands, candidate{net: int32(i % 7), edge: int32(i)})
		keys = append(keys, candKey{
			cd:      int32(i / 20),
			gl:      0.6e-9 * float64(i%3),
			ld:      float64(3 - i/3%3),
			trunk:   i%11 == 0,
			fm:      int32(i / 13 % 2),
			edgeLen: 100 + 0.6e-9*float64(i%4),
		})
	}
	for _, on := range []bool{true, false} {
		r := &router{cfg: engine.Config{UseConstraints: on}}
		for _, areaOrder := range []bool{false, true} {
			less := func(i, j int) bool { return r.keyLess(&keys[i], &keys[j], cands[i], cands[j], areaOrder) }
			for i := range keys {
				if less(i, i) {
					t.Fatalf("constraints %v, areaOrder %v: crafted key %d less than itself", on, areaOrder, i)
				}
				for j := range keys {
					if j != i && less(i, j) == less(j, i) {
						t.Fatalf("constraints %v, areaOrder %v: crafted keys %d, %d: less both ways or neither", on, areaOrder, i, j)
					}
					if !less(i, j) {
						continue
					}
					for k := range keys {
						if less(j, k) && !less(i, k) {
							t.Fatalf("constraints %v, areaOrder %v: crafted keys %d < %d < %d but not %d < %d:\n%+v\n%+v\n%+v",
								on, areaOrder, i, j, k, i, k, keys[i], keys[j], keys[k])
						}
					}
				}
			}
		}
	}
}

func TestDensCompareTrunkFirst(t *testing.T) {
	r := newTestRouter(t, circuit.SampleSmall(), engine.Config{})
	var trunk, other candidate
	trunk.net, other.net = -1, -1
	for n, g := range r.graphs {
		for _, e := range g.NonBridges() {
			if g.Edges[e].Kind == rgraph.ETrunk && trunk.net == -1 {
				trunk = candidate{int32(n), int32(e)}
			}
			if g.Edges[e].Kind != rgraph.ETrunk && other.net == -1 {
				other = candidate{int32(n), int32(e)}
			}
		}
	}
	if trunk.net == -1 || other.net == -1 {
		t.Skip("fixture lacks mixed candidates")
	}
	kt, ko := r.keyFor(trunk), r.keyFor(other)
	if keyDensCompare(&kt, &ko) >= 0 {
		t.Fatal("trunk edge must win condition 1")
	}
	if keyDensCompare(&ko, &kt) <= 0 {
		t.Fatal("condition 1 must be symmetric")
	}
}

func TestObjectiveTracksState(t *testing.T) {
	r := newTestRouter(t, circuit.SampleSmall(), engine.Config{UseConstraints: true})
	o := r.objective()
	if o.tracks != r.dens.TotalTracks() {
		t.Fatal("tracks mismatch")
	}
	var wl float64
	for _, l := range r.wl {
		wl += l
	}
	if math.Abs(o.wirelen-wl) > 1e-9 {
		t.Fatal("wirelen mismatch")
	}
}

func TestAcceptRules(t *testing.T) {
	r := newTestRouter(t, circuit.SampleSmall(), engine.Config{UseConstraints: true})
	base := objective{violations: 1, penalty: 5, tracks: 10, wirelen: 100}
	if !r.acceptDelay(base, objective{violations: 0, penalty: 9, tracks: 12, wirelen: 120}) {
		t.Fatal("fewer violations must be accepted")
	}
	if r.acceptDelay(base, objective{violations: 2, penalty: 1, tracks: 1, wirelen: 1}) {
		t.Fatal("more violations must be rejected")
	}
	if !r.acceptDelay(base, objective{violations: 1, penalty: 4.9, tracks: 10, wirelen: 100}) {
		t.Fatal("lower penalty must be accepted")
	}
	if !r.acceptArea(base, objective{violations: 1, penalty: 5, tracks: 9, wirelen: 100}) {
		t.Fatal("fewer tracks must be accepted")
	}
	if r.acceptArea(base, objective{violations: 2, penalty: 5, tracks: 9, wirelen: 100}) {
		t.Fatal("area win at a new violation must be rejected")
	}
	if r.acceptArea(base, objective{violations: 1, penalty: 6, tracks: 9, wirelen: 100}) {
		t.Fatal("area win at higher penalty must be rejected")
	}
	if r.acceptArea(base, objective{violations: 1, penalty: 5, tracks: 10, wirelen: 100}) {
		t.Fatal("no improvement must be rejected")
	}
	if !r.acceptArea(base, objective{violations: 1, penalty: 5, tracks: 10, wirelen: 99}) {
		t.Fatal("equal tracks with less wire must be accepted")
	}
}

func TestReallocFeedsProposesOnlyFreeSlots(t *testing.T) {
	r := newTestRouter(t, circuit.SampleSmall(), engine.Config{UseConstraints: true})
	for n := range r.graphs {
		pair, k := r.withMate(n)
		nets := pair[:k]
		alt := r.reallocFeeds(nets)
		if alt == nil {
			continue
		}
		for i, feeds := range alt {
			nn := nets[i]
			w := r.ckt.Nets[nn].Pitch
			for _, f := range feeds {
				for j := 0; j < w; j++ {
					owner := r.slotOwnerAt(f.Row, f.Col+j)
					if owner >= 0 && owner != nn && owner != r.pairOf[nn] {
						t.Fatalf("net %d offered slot (%d,%d) owned by net %d", nn, f.Row, f.Col+j, owner)
					}
				}
			}
		}
	}
}

func TestSlotOwnerMatchesFeeds(t *testing.T) {
	res, err := Route(circuit.SampleSmall(), engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild ownership from the final feeds: every slot owned once.
	seen := map[[2]int]int{}
	for n := range res.Feeds {
		w := res.Ckt.Nets[n].Pitch
		for _, f := range res.Feeds[n] {
			for j := 0; j < w; j++ {
				key := [2]int{f.Row, f.Col + j}
				if prev, dup := seen[key]; dup {
					t.Fatalf("slot %v owned by nets %d and %d", key, prev, n)
				}
				seen[key] = n
			}
		}
	}
}
