package chanroute

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/core"
)

func TestLowerBoundDensityOnly(t *testing.T) {
	ch := &Channel{Segments: []*Segment{seg(0, 0, 4), seg(1, 2, 7), seg(2, 3, 9)}}
	if got := LowerBound(ch); got != 3 {
		t.Fatalf("bound = %d, want 3 (density at column 3-4)", got)
	}
}

func TestLowerBoundVCGChain(t *testing.T) {
	// Three segments overlapping only pairwise would pack into 2 tracks
	// by density, but a VCG chain a>b>c forces 3.
	ch := &Channel{Segments: []*Segment{
		seg(0, 0, 4, Pin{Col: 2, FromTop: true}),
		seg(1, 1, 6, Pin{Col: 2, FromTop: false}, Pin{Col: 5, FromTop: true}),
		seg(2, 5, 9, Pin{Col: 5, FromTop: false}),
	}}
	if got := LowerBound(ch); got != 3 {
		t.Fatalf("bound = %d, want 3 (VCG chain)", got)
	}
}

func TestLowerBoundCycleCut(t *testing.T) {
	// A 2-cycle must not loop forever and bounds at least the density.
	ch := &Channel{Segments: []*Segment{
		seg(0, 0, 8, Pin{Col: 2, FromTop: true}, Pin{Col: 6, FromTop: false}),
		seg(1, 1, 9, Pin{Col: 2, FromTop: false}, Pin{Col: 6, FromTop: true}),
	}}
	got := LowerBound(ch)
	if got < 2 {
		t.Fatalf("bound = %d, want >= 2", got)
	}
}

func TestLowerBoundWideSegments(t *testing.T) {
	ch := &Channel{Segments: []*Segment{
		{Net: 0, Lo: 0, Hi: 9, Width: 2, Track: -1},
		{Net: 1, Lo: 2, Hi: 5, Width: 1, Track: -1},
	}}
	if got := LowerBound(ch); got != 3 {
		t.Fatalf("bound = %d, want 3", got)
	}
}

// TestSolversRespectLowerBound: the left-edge router always meets or
// exceeds the lower bound, and on random instances it stays within a
// small factor of it.
func TestSolversRespectLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *Channel {
			ch := &Channel{}
			for i := 0; i < 12; i++ {
				lo := rng.Intn(20)
				hi := lo + 1 + rng.Intn(8)
				s := seg(i, lo, hi)
				if rng.Intn(3) == 0 {
					s.Pins = append(s.Pins, Pin{Col: lo + rng.Intn(hi-lo), FromTop: rng.Intn(2) == 0})
				}
				ch.Segments = append(ch.Segments, s)
			}
			return ch
		}
		state := rng.Int63()
		rng = rand.New(rand.NewSource(state))
		ch := mk()
		bound := LowerBound(ch)
		Solve(ch)
		return ch.Tracks >= bound && ch.Tracks <= 2*bound+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(53))}); err != nil {
		t.Fatal(err)
	}
}

func TestRoutedChannelsNearBound(t *testing.T) {
	// On a real routed circuit the left-edge router's total tracks stay
	// close to the sum of per-channel lower bounds.
	res, err := core.Route(circuit.SampleSmall(), core.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	chans, err := Extract(res.Ckt, res.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	boundSum, trackSum := 0, 0
	for ci := range chans {
		boundSum += LowerBound(&chans[ci])
		Solve(&chans[ci])
		trackSum += chans[ci].Tracks
	}
	if trackSum < boundSum {
		t.Fatalf("tracks %d below bound %d", trackSum, boundSum)
	}
	if trackSum > boundSum*2 {
		t.Fatalf("tracks %d more than 2x bound %d", trackSum, boundSum)
	}
}
