package core

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/density"
	"repro/internal/engine"
	"repro/internal/rgraph"
)

// recount rebuilds the density state from the router's current graphs.
func (r *router) recount() *density.State {
	d := density.New(r.ckt.Channels(), r.ckt.Cols)
	for _, g := range r.graphs {
		for e := range g.Edges {
			ed := &g.Edges[e]
			if !ed.Alive || ed.Kind != rgraph.ETrunk {
				continue
			}
			d.Add(ed.Ch, ed.X1, ed.X2, g.Pitch)
			if ed.Bridge {
				d.AddBridge(ed.Ch, ed.X1, ed.X2, g.Pitch)
			}
		}
	}
	return d
}

// sampleDiffTaps is SampleDiff with two taps on each differential pin, so
// the pair's routing graphs start with cycles and the initial phase
// deletes edges of both mates in lock step. SampleDiff, SampleDiffCross
// and the generated data sets never delete a pair edge: their pair graphs
// are trees from the start.
func sampleDiffTaps() *circuit.Circuit {
	c := circuit.SampleDiff()
	c.Name = "sample-diff-taps"
	for _, d := range []struct {
		cell      int
		pin, pinB string
	}{{circuit.SampleDRV2, "Q", "QB"}, {circuit.SampleRCV2, "IN", "INB"}} {
		ct := &c.Lib[d.cell]
		ct.Pins[ct.PinIndex(d.pin)].Offsets = []int{0, 2}
		ct.Pins[ct.PinIndex(d.pinB)].Offsets = []int{1, 3}
	}
	return c
}

// TestDensityConsistentAfterEveryDeletion drives the router step by step
// (random and heuristic selections interleaved) and compares the
// incremental density state against a full recount, and the selection
// engine's channel sets against the graphs, after every single deletion —
// the strongest incremental-bookkeeping check.
func TestDensityConsistentAfterEveryDeletion(t *testing.T) {
	for _, build := range []func() *circuit.Circuit{circuit.SampleSmall, circuit.SampleDiffCross, sampleDiffTaps} {
		r := newTestRouter(t, build(), engine.Config{UseConstraints: true})
		rng := rand.New(rand.NewSource(61))
		step := 0
		for {
			var cand candidate
			var ok bool
			if step%2 == 0 {
				cand, ok = r.selectEdge(nil, false)
			} else {
				// Random legal candidate.
				var all []candidate
				for n, g := range r.graphs {
					for _, e := range g.NonBridges() {
						all = append(all, candidate{int32(n), int32(e)})
					}
				}
				if len(all) == 0 {
					ok = false
				} else {
					cand, ok = all[rng.Intn(len(all))], true
				}
			}
			if !ok {
				break
			}
			if err := r.deleteEdge(int(cand.net), int(cand.edge)); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			want := r.recount()
			for ch := 0; ch < r.ckt.Channels(); ch++ {
				if got, w := r.dens.Channel(ch), want.Channel(ch); got != w {
					t.Fatalf("step %d channel %d: incremental %+v != recount %+v", step, ch, got, w)
				}
			}
			// Wire lengths track the tentative trees exactly.
			for n := range r.graphs {
				tr, err := r.graphs[n].Tentative()
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if diff := tr.Length - r.wl[n]; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("step %d net %d: cached length %v, fresh %v", step, n, r.wl[n], tr.Length)
				}
			}
			checkNetChans(t, r, step)
			step++
		}
		if step == 0 {
			t.Fatal("no deletions exercised")
		}
	}
}

// checkNetChans checks the selection engine's channel index against the
// graphs: netChans[n] is the set of distinct channels of net n's alive
// non-bridge edges, and bit n of chanNetBits[ch] is set exactly when ch
// is in that set.
func checkNetChans(t *testing.T, r *router, step int) {
	t.Helper()
	for n, g := range r.graphs {
		want := make([]bool, r.dens.Channels())
		for _, e := range g.NonBridges() {
			want[g.Edges[e].Ch] = true
		}
		got := make([]bool, len(want))
		for _, ch := range r.netChans[n] {
			if got[ch] {
				t.Fatalf("step %d net %d: channel %d listed twice in %v", step, n, ch, r.netChans[n])
			}
			got[ch] = true
		}
		for ch := range want {
			if got[ch] != want[ch] {
				t.Fatalf("step %d net %d: channel %d in netChans = %v, holds a candidate = %v",
					step, n, ch, got[ch], want[ch])
			}
			if bit := r.chanNetBits[ch][n>>6]&(1<<(uint(n)&63)) != 0; bit != want[ch] {
				t.Fatalf("step %d net %d: chanNetBits[%d] bit = %v, holds a candidate = %v",
					step, n, ch, bit, want[ch])
			}
		}
	}
}

// TestLongerEdgeTieBreak: with identical delay and density criteria the
// longer edge is selected (§3.4's final condition).
func TestLongerEdgeTieBreak(t *testing.T) {
	r := newTestRouter(t, circuit.SampleSmall(), engine.Config{UseConstraints: false})
	// Find two trunk candidates in the same channel with equal density
	// context but different lengths — fall back to synthetic comparison.
	var cands []candidate
	var keys []candKey
	for n, g := range r.graphs {
		for _, e := range g.NonBridges() {
			c := candidate{int32(n), int32(e)}
			cands = append(cands, c)
			keys = append(keys, r.keyFor(c))
		}
	}
	for i := 0; i < len(cands); i++ {
		for j := 0; j < len(cands); j++ {
			if i == j {
				continue
			}
			a, b := cands[i], cands[j]
			ka, kb := &keys[i], &keys[j]
			if keyDensCompare(ka, kb) != 0 {
				continue
			}
			la, lb := ka.edgeLen, kb.edgeLen
			if la <= lb {
				continue
			}
			// a is strictly longer with tied density: a must win.
			if !r.keyLess(ka, kb, a, b, false) {
				t.Fatalf("longer edge (%v, %.1fµm) lost to (%v, %.1fµm)", a, la, b, lb)
			}
			if r.keyLess(kb, ka, b, a, false) {
				t.Fatal("tie-break not antisymmetric")
			}
			return
		}
	}
	t.Skip("no density-tied candidate pair in fixture")
}
