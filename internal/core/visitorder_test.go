package core

import (
	"slices"
	"testing"

	"repro/internal/dgraph"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/rgraph"
)

// TestVisitOrderMatchesNaive drains the §3.5 visit orders through an each
// that records the nets and reroutes nothing, and compares every list
// with a naive oracle: for the delay phases, a fresh lumped analysis of
// the current wire lengths with its constraints in ascending margin
// order, ties by index (only the violated ones for recovery), and each
// constraint's critical nets from that fresh analysis; for the area
// phase, a per-column scan of the most congested channel's profile that
// counts each net's trunk columns at C_M, sorted stably, most first. It
// runs on the five data sets after the initial phase and after the full
// route, constrained.
func TestVisitOrderMatchesNaive(t *testing.T) {
	var unviolated, coverTies int
	for _, name := range gen.DatasetNames() {
		r := newTestRouter(t, genDataset(t, name), engine.Config{UseConstraints: true})
		if err := r.runPhase("initial", r.initialRouting); err != nil {
			t.Fatal(err)
		}
		u, c := checkVisitOrder(t, r, name+"/initial")
		unviolated, coverTies = unviolated+u, coverTies+c
		if err := r.improve(routePhases); err != nil {
			t.Fatal(err)
		}
		u, c = checkVisitOrder(t, r, name+"/routed")
		unviolated, coverTies = unviolated+u, coverTies+c
	}
	t.Logf("%d constraints met, %d nets tied with the one before in the area order", unviolated, coverTies)
	if unviolated == 0 || coverTies == 0 {
		t.Fatal("no met constraint or no tie in the area order: the data sets no longer exercise the filter or the stable sort")
	}
}

// TestVisitOrderTiesByIndex gives the constraints of C3P1 three margins,
// −1, −2 and −3 in turn by index, after the initial phase: the delay
// phases must visit the −3 constraints, then the −2 and the −1 ones,
// each group in index order. The data sets tie margins only among a
// dozen constraints, which even an unstable sort orders by insertion.
func TestVisitOrderTiesByIndex(t *testing.T) {
	r := newTestRouter(t, genDataset(t, "C3P1"), engine.Config{UseConstraints: true})
	if err := r.runPhase("initial", r.initialRouting); err != nil {
		t.Fatal(err)
	}
	if len(r.tm.Cons) <= 12 {
		t.Fatalf("C3P1 has %d constraints; an unstable sort orders 12 or fewer by insertion", len(r.tm.Cons))
	}
	var want []int
	for rank := 2; rank >= 0; rank-- {
		for p := range r.tm.Cons {
			if p%3 == rank {
				want = append(want, r.tm.CriticalNets(p)...)
			}
		}
	}
	for p := range r.tm.Cons {
		r.tm.Cons[p].Margin = float64(-1 - p%3)
	}
	for _, violatedOnly := range []bool{true, false} {
		if got := drain(t, r.criticalNets(violatedOnly)); !slices.Equal(got, want) {
			t.Fatalf("criticalNets(%v) with tied margins = %v, want %v", violatedOnly, got, want)
		}
	}
}

// drain records the nets a visit order yields.
func drain(t *testing.T, visit func(each func(n int) error) error) []int {
	t.Helper()
	var nets []int
	if err := visit(func(n int) error { nets = append(nets, n); return nil }); err != nil {
		t.Fatal(err)
	}
	return nets
}

// checkVisitOrder compares the router's three visit orders with the naive
// ones. It returns the number of met constraints and of area-order ties.
func checkVisitOrder(t *testing.T, r *router, at string) (unviolated, coverTies int) {
	t.Helper()
	fresh := r.dg.NewTiming()
	fresh.SetLumped(r.wl)
	fresh.Analyze()
	for _, violatedOnly := range []bool{true, false} {
		want := naiveCriticalNets(fresh, violatedOnly)
		if got := drain(t, r.criticalNets(violatedOnly)); !slices.Equal(got, want) {
			t.Fatalf("%s: criticalNets(%v) = %v, want %v", at, violatedOnly, got, want)
		}
	}
	for p := range fresh.Cons {
		if !(fresh.Cons[p].Margin < 0) {
			unviolated++
		}
	}
	want, ties := naiveCongestedNets(r)
	if got := drain(t, r.congestedNets); !slices.Equal(got, want) {
		t.Fatalf("%s: congestedNets = %v, want %v", at, got, want)
	}
	return unviolated, ties
}

// naiveCriticalNets lists the constraints by insertion in ascending margin
// order, a later index after an equal margin, and concatenates their
// critical nets.
func naiveCriticalNets(tm *dgraph.Timing, violatedOnly bool) []int {
	var order []int
	for p := range tm.Cons {
		if violatedOnly && !(tm.Cons[p].Margin < 0) {
			continue
		}
		order = append(order, p)
		for i := len(order) - 1; i > 0 && tm.Cons[order[i]].Margin < tm.Cons[order[i-1]].Margin; i-- {
			order[i], order[i-1] = order[i-1], order[i]
		}
	}
	var nets []int
	for _, p := range order {
		nets = append(nets, tm.CriticalNets(p)...)
	}
	return nets
}

// naiveCongestedNets finds the first channel with the largest d_M,
// marks each net's alive trunk columns in it, counts those at the
// maximum, and lists the nets that have any by insertion, most first, a
// later net after an equal count. It also returns the number of equal
// counts next to each other in the list.
func naiveCongestedNets(r *router) (nets []int, ties int) {
	ch, cm := -1, 0
	for c := 0; c < r.dens.Channels(); c++ {
		for _, d := range r.dens.ProfileM(c) {
			if d > cm {
				ch, cm = c, d
			}
		}
	}
	if ch < 0 {
		return nil, 0
	}
	prof := r.dens.ProfileM(ch)
	type scored struct{ net, cover int }
	var list []scored
	for n, g := range r.graphs {
		over := make([]bool, len(prof))
		for _, ed := range g.Edges {
			if ed.Alive && ed.Kind == rgraph.ETrunk && ed.Ch == ch {
				for x := min(ed.X1, ed.X2); x < max(ed.X1, ed.X2); x++ {
					over[x] = true
				}
			}
		}
		cover := 0
		for x, on := range over {
			if on && prof[x] == cm {
				cover++
			}
		}
		if cover == 0 {
			continue
		}
		list = append(list, scored{n, cover})
		for i := len(list) - 1; i > 0 && list[i].cover > list[i-1].cover; i-- {
			list[i], list[i-1] = list[i-1], list[i]
		}
	}
	for i, s := range list {
		nets = append(nets, s.net)
		if i > 0 && s.cover == list[i-1].cover {
			ties++
		}
	}
	return nets, ties
}
