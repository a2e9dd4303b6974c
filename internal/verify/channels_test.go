package verify

import (
	"testing"

	"repro/internal/chanroute"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
)

func channelResult(t *testing.T, ckt *circuit.Circuit) *chanroute.Result {
	t.Helper()
	res, err := core.Route(ckt, engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := chanroute.Route(res.Ckt, res.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	return cr
}

// TestChannelsCleanForBothAlgorithms: chanroute.Route's output on the
// three samples breaks no channel rule and waives no constraint.
func TestChannelsCleanForBothAlgorithms(t *testing.T) {
	for _, build := range []func() *circuit.Circuit{circuit.SampleSmall, circuit.SampleDiff, circuit.SampleDiffCross} {
		cr := channelResult(t, build())
		if v := Channels(cr); !v.OK() {
			t.Errorf("%s: %v", build().Name, v.Problems[0])
		}
	}
}

func TestChannelsCleanOnDataset(t *testing.T) {
	p, err := gen.Dataset("C1P1")
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Waived-constraint notes are acceptable; hard rule breaks are not.
	for _, pr := range Channels(channelResult(t, ckt)).Problems {
		if pr.Rule != "chan-vcg-waived" {
			t.Error(pr)
		}
	}
}

func TestChannelsDetectsOverlap(t *testing.T) {
	cr := channelResult(t, circuit.SampleSmall())
	// Force two different-net proper segments onto the same track.
	var a, b *chanroute.Segment
	for ci := range cr.Channels {
		for _, s := range cr.Channels[ci].Segments {
			if s.Lo >= s.Hi {
				continue
			}
			if a == nil {
				a = s
			} else if s.Net != a.Net {
				b = s
				break
			}
		}
		if b != nil {
			break
		}
	}
	if b == nil {
		t.Skip("fixture lacks two proper segments in one channel")
	}
	b.Track = a.Track
	b.Lo, b.Hi = a.Lo, a.Hi
	v := Channels(cr)
	hit := false
	for _, pr := range v.Problems {
		if pr.Rule == "chan-overlap" {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("overlap not detected: %v", v.Problems)
	}
}

func TestChannelsDetectsBadTrack(t *testing.T) {
	cr := channelResult(t, circuit.SampleSmall())
	for ci := range cr.Channels {
		for _, s := range cr.Channels[ci].Segments {
			if s.Lo < s.Hi {
				s.Track = cr.Channels[ci].Tracks + 7
				v := Channels(cr)
				for _, pr := range v.Problems {
					if pr.Rule == "chan-track" {
						return
					}
				}
				t.Fatalf("bad track not detected: %v", v.Problems)
			}
		}
	}
	t.Skip("no proper segments")
}

func TestChannelsDetectsVCGBreak(t *testing.T) {
	// Hand-build a channel with a satisfied constraint, then flip it.
	ch := chanroute.Channel{Segments: []*chanroute.Segment{
		{Net: 0, Lo: 0, Hi: 5, Width: 1, Track: 1,
			Pins: []chanroute.Pin{{Col: 3, FromTop: true}}},
		{Net: 1, Lo: 3, Hi: 8, Width: 1, Track: 0,
			Pins: []chanroute.Pin{{Col: 3, FromTop: false}}},
	}, Tracks: 2}
	cr := &chanroute.Result{Channels: []chanroute.Channel{ch}}
	if v := Channels(cr); !v.OK() {
		t.Fatalf("valid channel flagged: %v", v.Problems)
	}
	cr.Channels[0].Segments[0].Track, cr.Channels[0].Segments[1].Track = 0, 1
	v := Channels(cr)
	hit := false
	for _, pr := range v.Problems {
		if pr.Rule == "chan-vcg" {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("VCG break not detected: %v", v.Problems)
	}
}
