package chanroute

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rgraph"
)

// TestLengthAccountingHandExample verifies accumulate() against a
// hand-computed wire length on the SampleDiff pair net q: its tree is a
// single channel-1 segment from the driver tap to the receiver pin with a
// pin jog at each end.
func TestLengthAccountingHandExample(t *testing.T) {
	res, err := core.Route(circuit.SampleDiff(), engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Route(res.Ckt, res.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	tech := res.Ckt.Tech
	// Locate net q's single segment in channel 1.
	var seg *Segment
	for _, s := range cr.Channels[1].Segments {
		if s.Net == 0 {
			if seg != nil {
				t.Fatal("net q has more than one channel-1 segment")
			}
			seg = s
		}
	}
	if seg == nil {
		t.Fatal("net q has no channel-1 segment")
	}
	if len(seg.Pins) != 2 {
		t.Fatalf("net q segment has %d pins, want 2", len(seg.Pins))
	}
	horizontal := float64(seg.Hi-seg.Lo) * tech.PitchX
	chanHeight := float64(cr.Channels[1].Tracks) * tech.TrackPitch
	trackY := (float64(seg.Track) + 0.5) * tech.TrackPitch
	var vertical float64
	for _, p := range seg.Pins {
		if p.FromTop {
			vertical += chanHeight - trackY
		} else {
			vertical += trackY
		}
	}
	want := horizontal + vertical
	if math.Abs(cr.NetLenUm[0]-want) > 1e-9 {
		t.Fatalf("net q length %v, hand computation %v", cr.NetLenUm[0], want)
	}
}

// TestLengthIncludesFeedthroughs checks that each feedthrough contributes
// exactly one row height.
func TestLengthIncludesFeedthroughs(t *testing.T) {
	res, err := core.Route(circuit.SampleSmall(), engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Route(res.Ckt, res.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	for n, g := range res.Graphs {
		feeds := 0
		for _, e := range g.AliveEdges() {
			if g.Edges[e].Kind == rgraph.EFeed {
				feeds++
			}
		}
		if feeds == 0 {
			continue
		}
		// The net's length must be at least its feedthrough verticals.
		if cr.NetLenUm[n] < float64(feeds)*res.Ckt.Tech.RowHeight {
			t.Errorf("net %s: length %v below %d feedthroughs",
				res.Ckt.Nets[n].Name, cr.NetLenUm[n], feeds)
		}
	}
}

// TestAreaComposition: the chip height is rows + channel tracks, width is
// the column count.
func TestAreaComposition(t *testing.T) {
	res, err := core.Route(circuit.SampleSmall(), engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Route(res.Ckt, res.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	tech := res.Ckt.Tech
	wantH := float64(res.Ckt.Rows) * tech.RowHeight
	for ci := range cr.Channels {
		wantH += float64(cr.Channels[ci].Tracks) * tech.TrackPitch
	}
	if math.Abs(cr.HeightUm-wantH) > 1e-9 {
		t.Fatalf("height %v, want %v", cr.HeightUm, wantH)
	}
	if wantW := float64(res.Ckt.Cols) * tech.PitchX; cr.WidthUm != wantW {
		t.Fatalf("width %v, want %v", cr.WidthUm, wantW)
	}
	if math.Abs(cr.AreaMm2-cr.WidthUm*cr.HeightUm/1e6) > 1e-12 {
		t.Fatal("area inconsistent with width x height")
	}
}
