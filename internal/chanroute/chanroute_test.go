package chanroute

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
)

func seg(net, lo, hi int, pins ...Pin) *Segment {
	return &Segment{Net: net, Lo: lo, Hi: hi, Pins: pins, Width: 1, Track: -1}
}

// maxDensity computes the column density of a channel's proper segments.
func maxDensity(ch *Channel) int {
	counts := map[int]int{}
	max := 0
	for _, s := range ch.Segments {
		if s.Lo == s.Hi {
			continue
		}
		for x := s.Lo; x <= s.Hi; x++ {
			counts[x] += s.Width
			if counts[x] > max {
				max = counts[x]
			}
		}
	}
	return max
}

func TestSolveSimpleLeftEdge(t *testing.T) {
	// Three segments, no vertical constraints: 0-4, 5-9 share a track,
	// 2-7 takes another.
	ch := &Channel{Segments: []*Segment{seg(0, 0, 4), seg(1, 5, 9), seg(2, 2, 7)}}
	Solve(ch)
	if ch.Tracks != 2 {
		t.Fatalf("tracks = %d, want 2", ch.Tracks)
	}
	if ch.Segments[0].Track != ch.Segments[1].Track {
		t.Fatal("non-overlapping segments should share a track")
	}
	if ch.Segments[2].Track == ch.Segments[0].Track {
		t.Fatal("overlapping segments on one track")
	}
	if ch.VCGViolations != 0 {
		t.Fatalf("violations = %d", ch.VCGViolations)
	}
}

func TestSolveRespectsVerticalConstraint(t *testing.T) {
	// Net 0 has a top pin at column 3; net 1 has a bottom pin there. Net 0
	// must land on a higher track even though left-edge order would pack
	// them the other way.
	ch := &Channel{Segments: []*Segment{
		seg(0, 0, 5, Pin{Col: 3, FromTop: true}),
		seg(1, 3, 8, Pin{Col: 3, FromTop: false}),
	}}
	Solve(ch)
	if ch.VCGViolations != 0 {
		t.Fatalf("violations = %d", ch.VCGViolations)
	}
	if !(ch.Segments[0].Track > ch.Segments[1].Track) {
		t.Fatalf("track(top-pin net) = %d must be above track(bottom-pin net) = %d",
			ch.Segments[0].Track, ch.Segments[1].Track)
	}
}

func TestSolveBreaksVCGCycleWithDogleg(t *testing.T) {
	// Classic cycle: at column 2, net 0 above net 1; at column 6, net 1
	// above net 0. A dogleg must resolve it without violations.
	ch := &Channel{Segments: []*Segment{
		seg(0, 0, 8, Pin{Col: 2, FromTop: true}, Pin{Col: 6, FromTop: false}),
		seg(1, 1, 9, Pin{Col: 2, FromTop: false}, Pin{Col: 6, FromTop: true}),
	}}
	Solve(ch)
	if ch.VCGViolations != 0 {
		t.Fatalf("cycle not resolved: %d violations", ch.VCGViolations)
	}
	split := false
	for _, s := range ch.Segments {
		if s.Dogleg {
			split = true
		}
	}
	if !split {
		t.Fatal("no dogleg recorded")
	}
}

// TestSolveWaivedCyclePlacesEverySegment routes a channel whose
// constraint cycle no dogleg can split, so Solve gives up and packs by
// pure left edge, and then keeps packing the segments that remain. Nets
// 0 and 1 span adjacent columns, each above the other; net 3 lies above
// net 0 and net 2 above net 3. Every segment must still get its own
// track: the give-up path copies the unplaced segments into its
// candidate buffer, and aliasing the two reused buffers instead loses
// net 2's segment.
func TestSolveWaivedCyclePlacesEverySegment(t *testing.T) {
	ch := &Channel{Segments: []*Segment{
		seg(0, 0, 1, Pin{Col: 0, FromTop: true}, Pin{Col: 1, FromTop: false}),
		seg(1, 0, 1, Pin{Col: 0, FromTop: false}, Pin{Col: 1, FromTop: true}),
		seg(2, 1, 2, Pin{Col: 2, FromTop: true}),
		seg(3, 1, 2, Pin{Col: 1, FromTop: true}, Pin{Col: 2, FromTop: false}),
	}}
	Solve(ch)
	if ch.Tracks != 4 || ch.VCGViolations != 4 {
		t.Fatalf("tracks = %d, violations = %d; want 4 and 4", ch.Tracks, ch.VCGViolations)
	}
	seen := map[int]bool{}
	for _, s := range ch.Segments {
		if s.Track < 0 || s.Track >= ch.Tracks || seen[s.Track] {
			t.Errorf("net %d got track %d", s.Net, s.Track)
		}
		seen[s.Track] = true
	}
}

func TestSolveStraightThroughNoTrack(t *testing.T) {
	ch := &Channel{Segments: []*Segment{
		seg(0, 4, 4, Pin{Col: 4, FromTop: true}, Pin{Col: 4, FromTop: false}),
		seg(1, 0, 9),
	}}
	Solve(ch)
	if ch.Tracks != 1 {
		t.Fatalf("tracks = %d, want 1 (straight-through is free)", ch.Tracks)
	}
	if ch.Segments[0].Track != -1 {
		t.Fatal("straight-through was assigned a track")
	}
}

func TestSolveWideSegmentTakesWidth(t *testing.T) {
	ch := &Channel{Segments: []*Segment{
		{Net: 0, Lo: 0, Hi: 9, Width: 2, Track: -1},
		{Net: 1, Lo: 2, Hi: 5, Width: 1, Track: -1},
	}}
	Solve(ch)
	if ch.Tracks != 3 {
		t.Fatalf("tracks = %d, want 3 (2-pitch + 1)", ch.Tracks)
	}
}

// TestSolveTracksAtLeastDensity solves random channels whose segments
// carry 0-4 pins each, on random sides, so vertical-constraint cycles
// form: some cases must split a segment with a dogleg and some must give
// up and waive constraints, or Solve's hardest paths go untested.
func TestSolveTracksAtLeastDensity(t *testing.T) {
	splits, waives := 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ch := &Channel{}
		for i := 0; i < 8; i++ {
			lo := rng.Intn(20)
			hi := lo + 1 + rng.Intn(10)
			s := seg(i, lo, hi)
			for k := rng.Intn(5); k > 0; k-- {
				s.Pins = append(s.Pins, Pin{Col: lo + rng.Intn(hi-lo+1), FromTop: rng.Intn(2) == 0})
			}
			ch.Segments = append(ch.Segments, s)
		}
		d := maxDensity(ch)
		Solve(ch)
		if len(ch.Segments) > 8 {
			splits++
		}
		if ch.VCGViolations > 0 {
			waives++
		}
		if ch.Tracks < d {
			return false
		}
		// Every segment spans a column (Lo < Hi), and so does each piece a
		// dogleg splits off, so every one is placed; same-track segments
		// never overlap across nets.
		for i, a := range ch.Segments {
			if a.Track < 0 || a.Track >= ch.Tracks {
				return false
			}
			for _, b := range ch.Segments[i+1:] {
				if b.Track != a.Track || b.Net == a.Net {
					continue
				}
				if a.Lo <= b.Hi && b.Lo <= a.Hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d cases split a segment, %d waived constraints", splits, waives)
	if splits == 0 || waives == 0 {
		t.Fatalf("no case reached Solve's dogleg (%d) or give-up path (%d)", splits, waives)
	}
}

func TestRouteEndToEnd(t *testing.T) {
	for _, build := range []func() *circuit.Circuit{circuit.SampleSmall, circuit.SampleDiff} {
		ckt := build()
		gres, err := core.Route(ckt, engine.Config{UseConstraints: true})
		if err != nil {
			t.Fatalf("%s: %v", ckt.Name, err)
		}
		cres, err := Route(gres.Ckt, gres.Graphs)
		if err != nil {
			t.Fatalf("%s: %v", ckt.Name, err)
		}
		if cres.AreaMm2 <= 0 || cres.WidthUm <= 0 || cres.HeightUm <= 0 {
			t.Fatalf("%s: bad area %v (%v x %v)", ckt.Name, cres.AreaMm2, cres.WidthUm, cres.HeightUm)
		}
		var sum float64
		for n, l := range cres.NetLenUm {
			if l <= 0 {
				t.Errorf("%s: net %s length %v", ckt.Name, gres.Ckt.Nets[n].Name, l)
			}
			sum += l
		}
		if sum != cres.TotalLenUm {
			t.Errorf("%s: total length mismatch", ckt.Name)
		}
		// Post-routing lengths include vertical detail, so they are at
		// least the global estimates minus the nominal branch stubs.
		if cres.TotalLenUm < gres.TotalWirelenUm*0.5 {
			t.Errorf("%s: post-routing length %v suspiciously below estimate %v",
				ckt.Name, cres.TotalLenUm, gres.TotalWirelenUm)
		}
		// Track counts at least the channel density the router tracked.
		for ci := range cres.Channels {
			if cm := gres.Dens.Channel(ci).CM; cres.Channels[ci].Tracks < cm {
				t.Errorf("%s: channel %d tracks %d below density %d",
					ckt.Name, ci, cres.Channels[ci].Tracks, cm)
			}
		}
	}
}

func TestExtractCoversEveryPin(t *testing.T) {
	ckt := circuit.SampleSmall()
	gres, err := core.Route(ckt, engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	chans, err := Extract(gres.Ckt, gres.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	// Every net appears in at least one channel with at least as many
	// pins as it has terminals (feedthrough endpoints add more).
	pinCount := make(map[int]int)
	for ci := range chans {
		for _, s := range chans[ci].Segments {
			pinCount[s.Net] += len(s.Pins)
		}
	}
	for n := range gres.Ckt.Nets {
		if pinCount[n] < len(gres.Ckt.Terminals(n)) {
			t.Errorf("net %s: %d channel pins for %d terminals",
				gres.Ckt.Nets[n].Name, pinCount[n], len(gres.Ckt.Terminals(n)))
		}
	}
}

// TestBelowCountsMatchNaive cross-checks the cached pair counting against
// the direct O(n²) definition on random channels.
func TestBelowCountsMatchNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var segs []*Segment
		for i := 0; i < 10; i++ {
			lo := rng.Intn(16)
			s := seg(i%7, lo, lo+1+rng.Intn(6))
			for k := 0; k < rng.Intn(3); k++ {
				s.Pins = append(s.Pins, Pin{Col: s.Lo + rng.Intn(s.Hi-s.Lo), FromTop: rng.Intn(2) == 0})
			}
			segs = append(segs, s)
		}
		sub := segs[:3+rng.Intn(len(segs)-3)]
		got := belowCountsInto(nil, sub, vcgPairs(segs))
		for _, top := range sub {
			want := 0
			for _, bot := range sub {
				if top != bot && top.Net != bot.Net && mustBeAbove(top, bot) {
					want++
				}
			}
			if got[top.ord] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(71))}); err != nil {
		t.Fatal(err)
	}
}
