package verify

import (
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/rgraph"
)

func routeSample(t *testing.T, build func() *circuit.Circuit, cfg engine.Config) *engine.Result {
	t.Helper()
	res, err := core.Route(build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCleanRoutingsPass(t *testing.T) {
	for _, cfg := range []engine.Config{
		{UseConstraints: true},
		{UseConstraints: false},
		{UseConstraints: true, DelayModel: engine.Elmore, RPerUm: 0.0005},
		{UseConstraints: true, NoFeedReroute: true},
	} {
		for _, build := range []func() *circuit.Circuit{circuit.SampleSmall, circuit.SampleDiff} {
			res := routeSample(t, build, cfg)
			v := Routing(res)
			if !v.OK() {
				t.Errorf("cfg %+v, %s: %d problems, first: %v", cfg, res.Ckt.Name, len(v.Problems), v.Problems[0])
			}
		}
	}
}

func TestGeneratedDatasetPasses(t *testing.T) {
	p, err := gen.Dataset("C1P1")
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, use := range []bool{true, false} {
		res, err := core.Route(ckt, engine.Config{UseConstraints: use})
		if err != nil {
			t.Fatal(err)
		}
		v := Routing(res)
		if !v.OK() {
			for _, pr := range v.Problems[:min(len(v.Problems), 5)] {
				t.Errorf("constraints=%v: %v", use, pr)
			}
		}
	}
}

func TestDetectsSharedFeedSlot(t *testing.T) {
	res := routeSample(t, circuit.SampleSmall, engine.Config{UseConstraints: true})
	// Corrupt: point one net's feedthrough at another net's slot.
	var donor, victim = -1, -1
	for n := range res.Feeds {
		if len(res.Feeds[n]) > 0 {
			if donor == -1 {
				donor = n
			} else if res.Feeds[n][0].Row == res.Feeds[donor][0].Row {
				victim = n
				break
			}
		}
	}
	if victim == -1 {
		t.Skip("fixture lacks two nets crossing the same row")
	}
	res.Feeds[victim][0].Col = res.Feeds[donor][0].Col
	v := Routing(res)
	if v.OK() {
		t.Fatal("shared slot not detected")
	}
	found := false
	for _, p := range v.Problems {
		if p.Rule == "feed-exclusive" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected feed-exclusive problem, got %v", v.Problems)
	}
}

func TestDetectsBrokenDiffParallelism(t *testing.T) {
	res := routeSample(t, circuit.SampleDiff, engine.Config{UseConstraints: true})
	// Corrupt: shift one alive trunk edge of net qb.
	g := res.Graphs[1]
	for e := range g.Edges {
		if g.Edges[e].Alive && g.Edges[e].Kind == rgraph.ETrunk {
			g.Edges[e].X1 += 2
			g.Edges[e].X2 += 2
			break
		}
	}
	v := Routing(res)
	hit := false
	for _, p := range v.Problems {
		if p.Rule == "diff-parallel" {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("broken parallelism not detected: %v", v.Problems)
	}
}

func TestDetectsWrongLength(t *testing.T) {
	res := routeSample(t, circuit.SampleSmall, engine.Config{UseConstraints: true})
	res.WirelenUm[0] += 100
	v := Routing(res)
	hit := false
	for _, p := range v.Problems {
		if p.Rule == "length" && strings.Contains(p.Msg, res.Ckt.Nets[0].Name) {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("length mismatch not detected: %v", v.Problems)
	}
}

func TestDetectsMissingFeed(t *testing.T) {
	res := routeSample(t, circuit.SampleSmall, engine.Config{UseConstraints: true})
	for n := range res.Feeds {
		if len(res.Feeds[n]) > 0 {
			res.Feeds[n] = res.Feeds[n][:len(res.Feeds[n])-1]
			break
		}
	}
	v := Routing(res)
	hit := false
	for _, p := range v.Problems {
		if p.Rule == "feed-coverage" {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("missing feed not detected: %v", v.Problems)
	}
}
