// Package density maintains the channel-density estimates of Harada &
// Kitazawa §3.3 (Fig. 4): per-channel column profiles
//
//	d_M(c,x) — pitch-weighted count of all alive trunk edges over x,
//	d_m(c,x) — pitch-weighted count of bridge trunk edges over x
//
// and the derived parameters C_M, C_m (profile maxima: upper and lower
// bounds of the eventual channel density), NC_M, NC_m (number of columns
// at the maximum), plus the per-edge interval versions D_M, D_m, ND_M,
// ND_m used by the edge-selection heuristics.
//
// A trunk edge spanning columns [x1, x2) contributes its pitch weight to
// every column in that half-open interval; abutting edges of one net thus
// sum to the net's span without double counting. Zero-length edges (branch
// and correspondence edges) contribute nothing, matching the paper: "the
// channel densities ... can be obtained by counting the number of Gr(n)
// trunk edges".
package density

import "fmt"

// ChannelStats are the §3.3 channel parameters.
type ChannelStats struct {
	CM  int // C_M(c): max of d_M — upper bound of the channel density
	NCM int // NC_M(c): number of columns where d_M reaches C_M
	Cm  int // C_m(c): max of d_m — lower bound (bridges cannot be removed)
	NCm int // NC_m(c): number of columns where d_m reaches C_m
}

// EdgeStats are the per-edge interval parameters.
type EdgeStats struct {
	DM  int // D_M(e): max of d_M over the edge's interval
	NDM int // ND_M(e): columns of the interval where d_M equals C_M(c)
	Dm  int // D_m(e): max of d_m over the interval
	NDm int // ND_m(e): columns of the interval where d_m equals C_m(c)
}

// State tracks densities for every channel of a chip. The profiles live in
// two flat int32 arrays indexed channel-major (channel*cols + column) —
// the same structure-of-arrays discipline as the timing subgraphs — so a
// profile update touches one contiguous cache-friendly run and the state
// allocates nothing after New.
type State struct {
	cols     int
	channels int
	dM       []int32 // d_M, channel-major
	dm       []int32 // d_m, channel-major
	dirty    []bool
	stats    []ChannelStats
	version  []uint64

	// changed accumulates the channels whose version moved since the last
	// TakeChanged, deduplicated via changedMark; the router drains it to
	// invalidate only the nets touching those channels.
	changed     []int32
	changedMark []bool
}

// New creates a density state for the given channel count and column count.
func New(channels, cols int) *State {
	s := &State{
		cols:     cols,
		channels: channels,
		dM:       make([]int32, channels*cols),
		dm:       make([]int32, channels*cols),
		dirty:    make([]bool, channels),
		stats:    make([]ChannelStats, channels),
		version:  make([]uint64, channels),

		changed:     make([]int32, 0, channels),
		changedMark: make([]bool, channels),
	}
	for c := range s.dirty {
		s.dirty[c] = true
	}
	return s
}

// Channels returns the number of channels tracked.
func (s *State) Channels() int { return s.channels }

// Cols returns the number of columns tracked.
func (s *State) Cols() int { return s.cols }

func (s *State) span(ch, x1, x2 int) (int, int) {
	if x2 < x1 {
		x1, x2 = x2, x1
	}
	if ch < 0 || ch >= s.channels || x1 < 0 || x2 > s.cols {
		panic(fmt.Sprintf("density: interval ch=%d [%d,%d) outside %dx%d", ch, x1, x2, s.channels, s.cols))
	}
	return x1, x2
}

// rowM returns channel ch's d_M profile slice.
func (s *State) rowM(ch int) []int32 { return s.dM[ch*s.cols : (ch+1)*s.cols] }

// rowm returns channel ch's d_m profile slice.
func (s *State) rowm(ch int) []int32 { return s.dm[ch*s.cols : (ch+1)*s.cols] }

// Add adds a trunk edge of the given pitch weight spanning [x1, x2).
//
//bgr:hot
func (s *State) Add(ch, x1, x2, w int) {
	x1, x2 = s.span(ch, x1, x2)
	row := s.rowM(ch)
	for x := x1; x < x2; x++ {
		row[x] += int32(w)
	}
	s.touch(ch)
}

// Remove removes a previously added trunk edge.
//
//bgr:hot
func (s *State) Remove(ch, x1, x2, w int) {
	x1, x2 = s.span(ch, x1, x2)
	row := s.rowM(ch)
	for x := x1; x < x2; x++ {
		row[x] -= int32(w)
		if row[x] < 0 {
			panic("density: d_M went negative")
		}
	}
	s.touch(ch)
}

// AddBridge marks a trunk edge as a bridge (it also remains counted in
// d_M; bridges are a subset of all edges).
//
//bgr:hot
func (s *State) AddBridge(ch, x1, x2, w int) {
	x1, x2 = s.span(ch, x1, x2)
	row := s.rowm(ch)
	for x := x1; x < x2; x++ {
		row[x] += int32(w)
	}
	s.touch(ch)
}

// RemoveBridge undoes AddBridge.
//
//bgr:hot
func (s *State) RemoveBridge(ch, x1, x2, w int) {
	x1, x2 = s.span(ch, x1, x2)
	row := s.rowm(ch)
	for x := x1; x < x2; x++ {
		row[x] -= int32(w)
		if row[x] < 0 {
			panic("density: d_m went negative")
		}
	}
	s.touch(ch)
}

// touch records a profile mutation: the channel's stats are stale and its
// version moves, which is what the router's per-net candidate caches key
// their density snapshots on.
func (s *State) touch(ch int) {
	s.dirty[ch] = true
	s.version[ch]++
	if !s.changedMark[ch] {
		s.changedMark[ch] = true
		s.changed = append(s.changed, int32(ch))
	}
}

// TakeChanged returns the channels whose version moved since the previous
// call and resets the record. The slice is valid until the next profile
// mutation (it is reused internally); callers must consume it before
// touching the state again.
func (s *State) TakeChanged() []int32 {
	for _, ch := range s.changed {
		s.changedMark[ch] = false
	}
	out := s.changed
	s.changed = s.changed[:0]
	return out
}

// Version returns a counter that increments on every profile mutation of
// the channel (d_M or d_m). Equal versions imply identical profiles, so
// cached per-channel criteria stamped with it stay exact.
func (s *State) Version(ch int) uint64 { return s.version[ch] }

// Channel returns the current §3.3 parameters of a channel, recomputing
// them first if the profile changed since they were last read.
func (s *State) Channel(ch int) ChannelStats {
	if s.dirty[ch] {
		s.stats[ch] = computeStats(s.rowM(ch), s.rowm(ch))
		s.dirty[ch] = false
	}
	return s.stats[ch]
}

func computeStats(dM, dm []int32) ChannelStats {
	// Single max+count pass per profile: when a new max appears the count
	// restarts at one, so the columns before it never need revisiting.
	var cM, cm int32
	var ncM, ncm int
	for _, v := range dM {
		if v > cM {
			cM, ncM = v, 1
		} else if v == cM {
			ncM++
		}
	}
	for _, v := range dm {
		if v > cm {
			cm, ncm = v, 1
		} else if v == cm {
			ncm++
		}
	}
	return ChannelStats{CM: int(cM), NCM: ncM, Cm: int(cm), NCm: ncm}
}

// Edge returns the interval parameters of an edge spanning [x1, x2) in the
// channel. Zero-length edges (x1 == x2) read the single column x1, matching
// the paper's "using the interval of e" for branch edges.
func (s *State) Edge(ch, x1, x2 int) EdgeStats {
	if x2 < x1 {
		x1, x2 = x2, x1
	}
	if x1 == x2 {
		x2 = x1 + 1
		if x2 > s.cols {
			x1, x2 = s.cols-1, s.cols
		}
	}
	x1, x2 = s.span(ch, x1, x2)
	cs := s.Channel(ch)
	cM, cm := int32(cs.CM), int32(cs.Cm)
	rowM, rowm := s.rowM(ch), s.rowm(ch)
	var dMax, dmMax int32
	var es EdgeStats
	for x := x1; x < x2; x++ {
		if v := rowM[x]; v > dMax {
			dMax = v
		}
		if v := rowm[x]; v > dmMax {
			dmMax = v
		}
		if rowM[x] == cM {
			es.NDM++
		}
		if rowm[x] == cm {
			es.NDm++
		}
	}
	es.DM, es.Dm = int(dMax), int(dmMax)
	return es
}

// ProfileM returns a copy of d_M(c, ·) for inspection and Fig. 4 renders.
func (s *State) ProfileM(ch int) []int { return copyRow(s.rowM(ch)) }

// Profilem returns a copy of d_m(c, ·).
func (s *State) Profilem(ch int) []int { return copyRow(s.rowm(ch)) }

func copyRow(row []int32) []int {
	out := make([]int, len(row))
	for i, v := range row {
		out[i] = int(v)
	}
	return out
}

// MaxCM returns the largest C_M over all channels and the channel holding
// it; the router's area-improvement phase targets that channel first.
func (s *State) MaxCM() (ch, cm int) {
	ch = -1
	for c := 0; c < s.channels; c++ {
		if st := s.Channel(c); st.CM > cm || ch == -1 {
			ch, cm = c, st.CM
		}
	}
	return ch, cm
}

// TotalTracks sums C_M over all channels: the chip-height contribution of
// the channels if every channel routes in exactly its density.
func (s *State) TotalTracks() int {
	sum := 0
	for c := 0; c < s.channels; c++ {
		sum += s.Channel(c).CM
	}
	return sum
}
