// Package chanroute is the channel-router substrate: it turns finished
// global-routing trees into per-channel track assignments, final wire
// lengths and the chip area. The paper measures its critical-path delays
// "from routing lengths after channel routing" and its areas from the
// resulting channel heights; this package provides both.
//
// The algorithm is a constrained left-edge router: segments are packed
// into tracks bottom-up honoring the vertical constraint graph (a top pin
// and a bottom pin in the same column force their nets' relative track
// order); cycles are broken by dogleg splitting where a segment can be
// split, and waived (Channel.VCGViolations) where none can.
package chanroute

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/circuit"
	"repro/internal/rgraph"
)

// Pin is a vertical entry into a channel.
type Pin struct {
	Col     int
	FromTop bool // true: enters from the channel's upper boundary
}

// Segment is one horizontal piece of a net inside a channel.
type Segment struct {
	Net    int
	Lo, Hi int // column span, inclusive; Lo == Hi is a straight-through
	Pins   []Pin
	Width  int // pitch width (occupies Width tracks)
	Track  int // assigned bottom track index, -1 for straight-throughs
	Dogleg bool

	// ord is Solve scratch: the segment's index within the current unplaced
	// set (valid only while unplaced[ord] == s).
	ord int
	// mark is vcgPairs scratch for per-top-segment dedup.
	mark int
}

// Channel is the routing problem of one channel.
type Channel struct {
	Index    int
	Segments []*Segment
	// Tracks is the resulting track count (assigned by Route).
	Tracks int
	// VCGViolations counts the segments Solve packed with their vertical
	// constraints waived, because no segment was free to place and
	// dogleg could not split one. It is not always 0 on routed circuits:
	// a two-net cycle between adjacent columns (each segment with
	// Hi-Lo == 1, so no interior pin) has nothing to split.
	VCGViolations int
}

// Result is the chip-level channel-routing outcome.
type Result struct {
	Channels []Channel
	// NetLenUm is the post-channel-routing wire length per net, µm.
	NetLenUm []float64
	// TotalLenUm sums NetLenUm.
	TotalLenUm float64
	// WidthUm, HeightUm and AreaMm2 describe the resulting chip.
	WidthUm  float64
	HeightUm float64
	AreaMm2  float64
}

// Route extracts per-channel problems from the final routing graphs and
// solves each one.
func Route(ckt *circuit.Circuit, graphs []*rgraph.Graph) (*Result, error) {
	chans, err := Extract(ckt, graphs)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Channels: chans,
		NetLenUm: make([]float64, len(ckt.Nets)),
	}
	for ci := range res.Channels {
		Solve(&res.Channels[ci])
	}
	res.accumulate(ckt, graphs)
	return res, nil
}

// Extract builds the channel problems from finished routing trees.
func Extract(ckt *circuit.Circuit, graphs []*rgraph.Graph) ([]Channel, error) {
	chans := make([]Channel, ckt.Channels())
	for ci := range chans {
		chans[ci].Index = ci
	}
	ws := extractWS{
		trunks:  make([][]iv, len(chans)),
		chanPin: make([][]Pin, len(chans)),
		usedPin: make([][]bool, len(chans)),
	}
	for n, g := range graphs {
		if !g.IsTree() {
			return nil, fmt.Errorf("chanroute: net %s is not finished", ckt.Nets[n].Name)
		}
		if err := extractNet(ckt, g, n, chans, &ws); err != nil {
			return nil, err
		}
	}
	return chans, nil
}

// iv is a trunk column interval.
type iv struct{ lo, hi int }

// extractWS holds the per-net extraction scratch, reused across nets so
// the per-channel bucket slices are allocated once per Extract instead of
// once per net.
type extractWS struct {
	terms   []circuit.PinRef
	trunks  [][]iv  // trunk intervals per channel
	chanPin [][]Pin // pins per channel
	usedPin [][]bool
	merged  []iv
	cols    []int
}

// extractNet walks one net's alive edges and appends its segments (one per
// connected trunk component per channel, plus straight-throughs).
func extractNet(ckt *circuit.Circuit, g *rgraph.Graph, n int, chans []Channel, ws *extractWS) error {
	for ch := range chans {
		ws.trunks[ch] = ws.trunks[ch][:0]
		ws.chanPin[ch] = ws.chanPin[ch][:0]
	}
	ws.terms = ckt.AppendTerminals(ws.terms[:0], n)
	// Pins per channel column (branch edges are cell/external pins, feed
	// edges contribute both endpoints) and trunk intervals per channel.
	for _, e := range g.AliveEdges() {
		ed := &g.Edges[e]
		switch ed.Kind {
		case rgraph.EBranch:
			// The position vertex tells which side the pin is on.
			pv := ed.U
			if g.Verts[pv].Kind != rgraph.VPos {
				pv = ed.V
			}
			fromTop, err := pinFromTop(ckt, g, n, pv, ws.terms)
			if err != nil {
				return err
			}
			ws.chanPin[ed.Ch] = append(ws.chanPin[ed.Ch], Pin{Col: ed.X1, FromTop: fromTop})
		case rgraph.EFeed:
			// Feed through row r: enters channel r from its top boundary
			// and channel r+1 from its bottom boundary.
			ws.chanPin[ed.Ch] = append(ws.chanPin[ed.Ch], Pin{Col: ed.X1, FromTop: true})
			ws.chanPin[ed.Ch+1] = append(ws.chanPin[ed.Ch+1], Pin{Col: ed.X1, FromTop: false})
		case rgraph.ETrunk:
			ws.trunks[ed.Ch] = append(ws.trunks[ed.Ch], iv{ed.X1, ed.X2})
		}
	}
	for ch, ps := range ws.chanPin {
		used := ws.usedPin[ch][:0]
		for range ps {
			used = append(used, false)
		}
		ws.usedPin[ch] = used
	}
	for ch, list := range ws.trunks {
		if len(list) == 0 {
			continue
		}
		slices.SortFunc(list, func(a, b iv) int { return a.lo - b.lo })
		merged := ws.merged[:0]
		for _, x := range list {
			if len(merged) > 0 && x.lo <= merged[len(merged)-1].hi {
				if x.hi > merged[len(merged)-1].hi {
					merged[len(merged)-1].hi = x.hi
				}
				continue
			}
			merged = append(merged, x)
		}
		ws.merged = merged
		for _, m := range merged {
			seg := &Segment{Net: n, Lo: m.lo, Hi: m.hi, Width: g.Pitch, Track: -1}
			for pi, p := range ws.chanPin[ch] {
				if p.Col >= m.lo && p.Col <= m.hi && !ws.usedPin[ch][pi] {
					seg.Pins = append(seg.Pins, p)
					ws.usedPin[ch][pi] = true
				}
			}
			chans[ch].Segments = append(chans[ch].Segments, seg)
		}
	}
	// Remaining pins form straight-throughs (vertical connections with no
	// horizontal extent), grouped per channel+column in first-appearance
	// pin order.
	for ch, ps := range ws.chanPin {
		cols := ws.cols[:0]
		for pi, p := range ps {
			if ws.usedPin[ch][pi] {
				continue
			}
			dup := false
			for _, c := range cols {
				if c == p.Col {
					dup = true
					break
				}
			}
			if !dup {
				cols = append(cols, p.Col)
			}
		}
		ws.cols = cols
		sort.Ints(cols)
		for _, col := range cols {
			var segPins []Pin
			for pi, p := range ps {
				if !ws.usedPin[ch][pi] && p.Col == col {
					segPins = append(segPins, p)
				}
			}
			chans[ch].Segments = append(chans[ch].Segments, &Segment{
				Net: n, Lo: col, Hi: col, Pins: segPins, Width: g.Pitch, Track: -1,
			})
		}
	}
	return nil
}

// pinFromTop decides whether a position vertex enters its channel from the
// channel's upper boundary. terms is the net's terminal list (Terminals
// order), passed in so the per-net lookup is done once by the caller.
func pinFromTop(ckt *circuit.Circuit, g *rgraph.Graph, n int, pv int, terms []circuit.PinRef) (bool, error) {
	ti := g.Verts[pv].Term
	if ti < 0 || ti >= len(terms) {
		return false, fmt.Errorf("chanroute: net %s position vertex without terminal", ckt.Nets[n].Name)
	}
	ref := terms[ti]
	if ref.IsExt() {
		// A bottom-edge external pin is below channel 0; a top-edge one is
		// above the last channel.
		return ckt.Ext[ref.Pin].Side == circuit.Top, nil
	}
	// A pin on the bottom of row r lives in channel r, whose upper
	// boundary is row r itself: it enters from the top. A pin on the top
	// of row r lives in channel r+1 and enters from the bottom.
	return ckt.PinDefOf(ref).Side == circuit.Bottom, nil
}

// Solve assigns tracks in one channel: constrained left-edge, bottom-up,
// with dogleg splitting on vertical-constraint cycles. It is exported for
// direct channel-level use.
func Solve(ch *Channel) {
	// Straight-throughs need no track.
	var segs []*Segment
	for _, s := range ch.Segments {
		if s.Lo < s.Hi {
			segs = append(segs, s)
		}
	}
	doglegBudget := 2*len(segs) + 8
	track := 0
	unplaced := segs
	pairs := vcgPairs(segs) // (above, below) constraints, rebuilt after doglegs
	// Per-iteration scratch, reused across the track loop.
	var below []int
	var cands []*Segment
	var placed []bool
	for len(unplaced) > 0 {
		below = belowCountsInto(below[:0], unplaced, pairs)
		// Candidates: segments whose below-set is fully placed.
		cands = cands[:0]
		for _, s := range unplaced {
			if below[s.ord] == 0 {
				cands = append(cands, s)
			}
		}
		if len(cands) == 0 {
			if doglegBudget > 0 {
				doglegBudget--
				if dogleg(ch, &unplaced) {
					pairs = vcgPairs(unplaced)
					continue
				}
			}
			// Give up on the remaining constraints: place everything by
			// pure left-edge and count the violations. cands must stay a
			// copy — aliasing unplaced here would let the reused buffers
			// clobber each other on the next iteration.
			ch.VCGViolations += len(unplaced)
			cands = append(cands, unplaced...)
		}
		slices.SortFunc(cands, func(a, b *Segment) int {
			if a.Lo != b.Lo {
				return a.Lo - b.Lo
			}
			return a.Hi - b.Hi
		})
		// Pack one track greedily. Wide segments occupy Width tracks; for
		// simplicity a track row containing a wide segment advances by
		// the widest member.
		rowEnd := -1
		widest := 1
		placed = placed[:0]
		for range unplaced {
			placed = append(placed, false)
		}
		for _, s := range cands {
			if s.Lo <= rowEnd {
				continue
			}
			s.Track = track
			placed[s.ord] = true
			rowEnd = s.Hi
			if s.Width > widest {
				widest = s.Width
			}
		}
		next := unplaced[:0]
		for _, s := range unplaced {
			if !placed[s.ord] {
				next = append(next, s)
			}
		}
		unplaced = next
		track += widest
	}
	ch.Tracks = track
}

// vcgPairs precomputes the vertical-constraint pairs (a must be above b)
// among the given segments; the counts per iteration then cost O(pairs)
// instead of O(n²) pin scans.
func vcgPairs(segs []*Segment) [][2]*Segment {
	// Index bottom pins by column so each top pin probes only the segments
	// that actually share its column, instead of the O(n²·pins²) all-pairs
	// mustBeAbove scan.
	maxCol := -1
	for _, s := range segs {
		s.mark = 0
		for _, p := range s.Pins {
			if p.Col > maxCol {
				maxCol = p.Col
			}
		}
	}
	botAt := make([][]*Segment, maxCol+1)
	for _, s := range segs {
		for _, p := range s.Pins {
			if !p.FromTop {
				botAt[p.Col] = append(botAt[p.Col], s)
			}
		}
	}
	var pairs [][2]*Segment
	gen := 0
	for _, top := range segs {
		gen++
		for _, p := range top.Pins {
			if !p.FromTop {
				continue
			}
			for _, bot := range botAt[p.Col] {
				if bot == top || bot.Net == top.Net || bot.mark == gen {
					continue
				}
				bot.mark = gen // emit each (top, bot) pair once
				pairs = append(pairs, [2]*Segment{top, bot})
			}
		}
	}
	return pairs
}

// belowCountsInto appends to below, for each unplaced segment (indexed by
// the ord field it assigns), how many still-unplaced segments must lie
// below it.
func belowCountsInto(below []int, unplaced []*Segment, pairs [][2]*Segment) []int {
	for i, s := range unplaced {
		s.ord = i
	}
	in := func(s *Segment) bool {
		return s.ord < len(unplaced) && unplaced[s.ord] == s
	}
	for range unplaced {
		below = append(below, 0)
	}
	for _, pr := range pairs {
		if in(pr[0]) && in(pr[1]) {
			below[pr[0].ord]++
		}
	}
	return below
}

// mustBeAbove reports whether segment a has a top pin at a column where b
// has a bottom pin: a's track must then be above b's.
func mustBeAbove(a, b *Segment) bool {
	for _, pa := range a.Pins {
		if !pa.FromTop {
			continue
		}
		for _, pb := range b.Pins {
			if !pb.FromTop && pb.Col == pa.Col {
				return true
			}
		}
	}
	return false
}

// dogleg splits one cycle participant at an interior column, appending the
// right half as a new segment. It reports whether a split happened.
func dogleg(ch *Channel, unplaced *[]*Segment) bool {
	// Prefer a segment with an interior pin; fall back to the longest.
	var pick *Segment
	splitAt := -1
	for _, s := range *unplaced {
		for _, p := range s.Pins {
			if p.Col > s.Lo && p.Col < s.Hi {
				pick, splitAt = s, p.Col
				break
			}
		}
		if pick != nil {
			break
		}
	}
	if pick == nil {
		for _, s := range *unplaced {
			if s.Hi-s.Lo >= 2 && (pick == nil || s.Hi-s.Lo > pick.Hi-pick.Lo) {
				pick = s
			}
		}
		if pick == nil {
			return false
		}
		splitAt = (pick.Lo + pick.Hi) / 2
	}
	right := &Segment{Net: pick.Net, Lo: splitAt, Hi: pick.Hi, Width: pick.Width, Track: -1, Dogleg: true}
	var leftPins []Pin
	for _, p := range pick.Pins {
		if p.Col > splitAt {
			right.Pins = append(right.Pins, p)
		} else {
			leftPins = append(leftPins, p)
		}
	}
	pick.Hi = splitAt
	pick.Pins = leftPins
	pick.Dogleg = true
	ch.Segments = append(ch.Segments, right)
	*unplaced = append(*unplaced, right)
	return true
}

// accumulate computes final lengths and area from the solved channels.
func (res *Result) accumulate(ckt *circuit.Circuit, graphs []*rgraph.Graph) {
	t := ckt.Tech
	res.WidthUm = float64(ckt.Cols) * t.PitchX
	res.HeightUm = float64(ckt.Rows) * t.RowHeight
	chanHeight := make([]float64, len(res.Channels))
	for ci := range res.Channels {
		h := float64(res.Channels[ci].Tracks) * t.TrackPitch
		chanHeight[ci] = h
		res.HeightUm += h
	}
	trackY := func(ci, track, width int) float64 {
		return (float64(track) + float64(width)/2) * t.TrackPitch
	}
	// Horizontal spans and vertical entries.
	for ci := range res.Channels {
		chn := &res.Channels[ci]
		for _, s := range chn.Segments {
			res.NetLenUm[s.Net] += float64(s.Hi-s.Lo) * t.PitchX
			if s.Lo == s.Hi {
				// Straight-through: full channel height.
				res.NetLenUm[s.Net] += chanHeight[ci]
				continue
			}
			y := trackY(ci, s.Track, s.Width)
			for _, p := range s.Pins {
				if p.FromTop {
					res.NetLenUm[s.Net] += chanHeight[ci] - y
				} else {
					res.NetLenUm[s.Net] += y
				}
			}
		}
		// Dogleg jogs: adjacent same-net segments sharing a column.
		for i, a := range chn.Segments {
			if !a.Dogleg || a.Track < 0 {
				continue
			}
			for _, b := range chn.Segments[i+1:] {
				if b.Net == a.Net && b.Dogleg && b.Track >= 0 && (b.Lo == a.Hi || b.Hi == a.Lo) {
					dy := trackY(ci, a.Track, a.Width) - trackY(ci, b.Track, b.Width)
					if dy < 0 {
						dy = -dy
					}
					res.NetLenUm[a.Net] += dy
				}
			}
		}
	}
	// Feedthrough verticals.
	for n, g := range graphs {
		for _, e := range g.AliveEdges() {
			if g.Edges[e].Kind == rgraph.EFeed {
				res.NetLenUm[n] += t.RowHeight
			}
		}
	}
	for _, l := range res.NetLenUm {
		res.TotalLenUm += l
	}
	res.AreaMm2 = res.WidthUm * res.HeightUm / 1e6
}
