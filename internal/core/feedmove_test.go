package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/feed"
	"repro/internal/gen"
	"repro/internal/rgraph"
)

// reallocFeedsCopy is the §3.5 feed move with its own copy of the §3.1
// row walk, which reallocFeeds replaced with feed.Walk and feed.Group. It
// is kept as TestFeedMoveMatchesCopy's oracle: it walks the net's current
// feed rows, reads the pair's geometry off the current feeds, and keeps a
// row's column when it finds no free group.
func reallocFeedsCopy(r *router, nets []int) [][]rgraph.FeedPos {
	primary := nets[0]
	cur := r.feeds[primary]
	if len(cur) == 0 {
		return nil
	}
	width := r.ckt.Nets[primary].Pitch
	mateShift := 0
	leftOff := 0 // offset from the primary's column to the group's leftmost
	if len(nets) == 2 {
		// The pair occupies adjacent columns; preserve the current offset.
		width = 2
		mateShift = 1
		if len(r.feeds[nets[1]]) > 0 {
			mateShift = r.feeds[nets[1]][0].Col - cur[0].Col
		}
		if mateShift < 0 {
			leftOff = mateShift
		}
	}
	occupied := func(row, col int) bool {
		owner := r.slotOwnerAt(row, col)
		if owner < 0 {
			return false
		}
		for _, nn := range nets {
			if owner == nn {
				return false // own slots count as free
			}
		}
		return true
	}
	_, _, target := feed.ChannelSpan(r.ckt, primary)
	alt := make([]rgraph.FeedPos, 0, len(cur))
	moved := false
	for _, f := range cur {
		curLeft := f.Col + leftOff
		col := feed.FindGroup(r.geo, occupied, f.Row, width, target, width, false)
		if col < 0 {
			col = curLeft
		}
		if col != curLeft {
			moved = true
		}
		alt = append(alt, rgraph.FeedPos{Row: f.Row, Col: col - leftOff})
		target = col
	}
	if !moved {
		return nil
	}
	out := [][]rgraph.FeedPos{alt}
	if len(nets) == 2 {
		mate := make([]rgraph.FeedPos, len(alt))
		for i, f := range alt {
			mate[i] = rgraph.FeedPos{Row: f.Row, Col: f.Col + mateShift}
		}
		out = append(out, mate)
	}
	return out
}

// tapDRV2 gives the generator's differential driver two taps per output
// (Q at offsets 0 and 2, QB at 1 and 3), so a generated pair has
// alternative routes and its graphs keep the constant shift §4.1 needs.
func tapDRV2(c *circuit.Circuit) *circuit.Circuit {
	for i := range c.Lib {
		ct := &c.Lib[i]
		if ct.Name == "DRV2" {
			ct.Pins[ct.PinIndex("Q")].Offsets = []int{0, 2}
			ct.Pins[ct.PinIndex("QB")].Offsets = []int{1, 3}
		}
	}
	return c
}

// TestFeedMoveMatchesCopy compares the §3.5 feed move (reallocFeeds on
// feed.Walk and feed.Group) with reallocFeedsCopy for every net, asked
// as itself and as its differential mate, at three points of a
// constrained route: after setup, after the initial phase and the §3.5
// phases, and after each free feed slot has been handed to a random net
// with probability 1/3, which pushes the walks off their current
// columns. The circuits are the five presets at Seed += 1000·k for
// k = 0..2, plain and with tapped differential drivers, sampleDiffTaps
// and SampleDiffCross.
func TestFeedMoveMatchesCopy(t *testing.T) {
	type tcase struct {
		name string
		ckt  *circuit.Circuit
	}
	var cases []tcase
	for k := 0; k < 3; k++ {
		for _, name := range gen.DatasetNames() {
			for _, taps := range []bool{false, true} {
				p, err := gen.Dataset(name)
				if err != nil {
					t.Fatal(err)
				}
				p.Seed += int64(1000 * k)
				ckt, err := gen.Generate(p)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/k%d", name, k)
				if taps {
					ckt, label = tapDRV2(ckt), label+"/taps"
				}
				cases = append(cases, tcase{label, ckt})
			}
		}
	}
	cases = append(cases, tcase{"sample-diff-taps", sampleDiffTaps()}, tcase{"sample-diff-cross", circuit.SampleDiffCross()})

	ran, proposals, moved, pairMoved := 0, 0, 0, 0
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ran++
			r := newTestRouter(t, c.ckt, engine.Config{UseConstraints: true})
			compare := func(point string) {
				for n := range r.feeds {
					pair, k := r.withMate(n)
					nets := pair[:k]
					got, want := r.reallocFeeds(nets), reallocFeedsCopy(r, nets)
					if !slices.EqualFunc(got, want, slices.Equal) || (got == nil) != (want == nil) {
						t.Fatalf("%s: net %d (nets %v): feed move %v, copy %v", point, n, nets, got, want)
					}
					proposals++
					if got != nil {
						moved++
						if k == 2 {
							pairMoved++
						}
					}
				}
			}
			compare("setup")
			if err := r.runPhase("initial", r.initialRouting); err != nil {
				t.Fatal(err)
			}
			if err := r.improve(routePhases); err != nil {
				t.Fatal(err)
			}
			compare("routed")
			rng := rand.New(rand.NewSource(int64(4000 + ci)))
			for row := 0; row < r.ckt.Rows; row++ {
				for _, s := range r.geo.FeedSlots(row) {
					if r.slotOwnerAt(row, s.Col) < 0 && rng.Intn(3) == 0 {
						r.slotOwner[row*r.slotCols+s.Col] = int32(rng.Intn(len(r.feeds)))
					}
				}
			}
			compare("slots handed out")
		})
	}
	t.Logf("%d proposals compared, %d moved (%d of a pair)", proposals, moved, pairMoved)
	// A run filtered down to some circuits may move nothing; the whole
	// set must move plain and pair feeds.
	if ran == len(cases) && (moved == 0 || pairMoved == 0) {
		t.Fatalf("no proposal moved a feed (%d moved, %d of a pair): the comparison covers only the no-move path", moved, pairMoved)
	}
}
