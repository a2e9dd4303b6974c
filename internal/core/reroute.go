package core

import (
	"fmt"

	"repro/internal/feed"
	"repro/internal/rgraph"
)

// objective summarizes the global state the improvement phases optimize.
type objective struct {
	violations int
	penalty    float64
	tracks     int
	wirelen    float64
}

func (r *router) objective() objective {
	o := objective{
		violations: r.liveViolations(),
		penalty:    r.penaltyTotal(),
		tracks:     r.dens.TotalTracks(),
	}
	for _, l := range r.wl {
		o.wirelen += l
	}
	return o
}

// acceptDelay is the acceptance rule of the violation-recovery and
// delay-improvement phases: fewer violations, or the same violations with
// a lower total penalty.
func (r *router) acceptDelay(before, after objective) bool {
	if after.violations != before.violations {
		return after.violations < before.violations
	}
	return after.penalty < before.penalty
}

// acceptArea is the acceptance rule of the area-improvement phase: fewer
// channel tracks (or the same with less wire) without making timing worse.
func (r *router) acceptArea(before, after objective) bool {
	if r.cfg.UseConstraints {
		if after.violations > before.violations {
			return false
		}
		if after.penalty > before.penalty {
			return false
		}
	}
	if after.tracks != before.tracks {
		return after.tracks < before.tracks
	}
	return after.wirelen < before.wirelen
}

// ripUpAndReroute rips up one net (and its differential mate), rebuilds
// its routing graph, reroutes it with the current global criteria, and
// keeps the result only if accept approves the before/after objectives
// (§3.5).
// If the plain reroute is rejected, it retries once with the net's
// feedthroughs re-assigned to the free slots nearest its terminal center
// (unless NoFeedReroute).
func (r *router) ripUpAndReroute(n int, areaOrder bool, accept func(before, after objective) bool) (bool, error) {
	pair, k := r.withMate(n)
	nets := pair[:k]
	improved, err := r.tryReroute(nets, nil, areaOrder, accept)
	if err != nil || improved {
		return improved, err
	}
	if r.cfg.NoFeedReroute {
		return false, nil
	}
	alt := r.reallocFeeds(nets)
	if alt == nil {
		return false, nil
	}
	return r.tryReroute(nets, alt, areaOrder, accept)
}

// tryReroute performs one rip-up/rebuild/reroute attempt on a net or a
// differential pair (nets has one or two entries), optionally with
// alternative feedthroughs (altFeeds[i] belongs to nets[i]), reverting
// everything if accept rejects it. The saved graphs and feeds are held in
// arrays aligned with nets, so every save/restore sweep follows the
// caller's net order exactly; retired graphs go to the free list so the
// next rebuild recycles their storage.
func (r *router) tryReroute(nets []int, altFeeds [][]rgraph.FeedPos, areaOrder bool, accept func(before, after objective) bool) (bool, error) {
	before := r.objective()

	var oldGraphs [2]*rgraph.Graph
	var oldFeeds [2][]rgraph.FeedPos
	for i, nn := range nets {
		oldGraphs[i] = r.graphs[nn]
		oldFeeds[i] = r.feeds[nn]
		r.densRemoveGraph(r.graphs[nn])
	}
	if altFeeds != nil {
		for _, nn := range nets {
			r.ownSlots(nn, r.feeds[nn], false)
		}
		for i, nn := range nets {
			r.feeds[nn] = altFeeds[i]
			r.ownSlots(nn, r.feeds[nn], true)
		}
	}
	restoreFeeds := func() {
		if altFeeds == nil {
			return
		}
		for _, nn := range nets {
			r.ownSlots(nn, r.feeds[nn], false)
		}
		for i, nn := range nets {
			r.feeds[nn] = oldFeeds[i]
			r.ownSlots(nn, r.feeds[nn], true)
		}
	}
	restore := func() error {
		for i, nn := range nets {
			r.densRemoveGraph(r.graphs[nn])
			r.putGraph(r.graphs[nn])
			r.graphs[nn] = oldGraphs[i]
			r.densAddGraph(r.graphs[nn])
			r.touchNet(nn)
			r.refreshCandidates(nn)
		}
		restoreFeeds()
		return r.refreshTrees(nets)
	}

	for _, nn := range nets {
		g, err := rgraph.BuildInto(r.takeGraph(), r.ckt, r.geo, nn, r.feeds[nn])
		if err != nil {
			// Put the old graphs and feeds back before failing. Nets rebuilt
			// before the failure already carry their new graph in the
			// density state: remove it first, or the old graph's re-add
			// would double count.
			for j, m := range nets {
				if r.graphs[m] != oldGraphs[j] {
					r.densRemoveGraph(r.graphs[m])
					r.putGraph(r.graphs[m])
					r.graphs[m] = oldGraphs[j]
					r.touchNet(m)
					r.refreshCandidates(m)
				}
				r.densAddGraph(r.graphs[m])
			}
			restoreFeeds()
			return false, fmt.Errorf("core: rebuilding net %s: %w", r.ckt.Nets[nn].Name, err)
		}
		r.graphs[nn] = g
		r.densAddGraph(g)
		r.touchNet(nn)
		r.refreshCandidates(nn)
	}
	if len(nets) == 2 {
		if err := sameShape(r.graphs[nets[0]], r.graphs[nets[1]]); err != nil {
			return false, err
		}
	}
	if err := r.refreshTrees(nets); err != nil {
		return false, err
	}
	for {
		if err := r.check(); err != nil {
			return false, err
		}
		best, ok := r.selectEdge(nets, areaOrder)
		if !ok {
			break
		}
		if err := r.deleteEdge(int(best.net), int(best.edge)); err != nil {
			return false, err
		}
	}
	after := r.objective()
	if accept(before, after) {
		// The displaced graphs are no longer referenced anywhere (trees
		// and density already follow the new graphs); recycle them.
		for _, g := range oldGraphs[:len(nets)] {
			r.putGraph(g)
		}
		return true, nil
	}
	if err := restore(); err != nil {
		return false, err
	}
	return false, nil
}

// ownSlots claims or releases the feedthrough columns of one net.
func (r *router) ownSlots(n int, feeds []rgraph.FeedPos, claim bool) {
	w := r.ckt.Nets[n].Pitch
	for _, f := range feeds {
		for j := 0; j < w; j++ {
			owner := int32(-1)
			if claim {
				owner = int32(n)
			}
			r.slotOwner[f.Row*r.slotCols+f.Col+j] = owner
		}
	}
}

// slotOwnerAt returns the net occupying a feedthrough column, or -1.
func (r *router) slotOwnerAt(row, col int) int {
	return int(r.slotOwner[row*r.slotCols+col])
}

// reallocFeeds proposes moving the nets' feedthroughs to the free slot
// groups nearest the net's terminal center, by the row walk of the
// initial assignment (feed.Walk, §3.1) over the current feed rows, with
// the nets' own slots counted as free. A pair moves as one 2-pitch group
// (feed.Group). The result is aligned with nets (out[i] replaces
// nets[i]'s feeds); it is nil when nothing would move.
func (r *router) reallocFeeds(nets []int) [][]rgraph.FeedPos {
	width, left, _ := feed.Group(r.ckt, nets[0])
	cur := r.feeds[left]
	if len(cur) == 0 {
		return nil
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
	_, _, target := feed.ChannelSpan(r.ckt, nets[0])
	alt := feed.Walk(make([]rgraph.FeedPos, 0, len(cur)), r.geo, occupied, cur[0].Row, cur[len(cur)-1].Row+1, width, target, false)
	moved := false
	for i := range alt {
		if alt[i].Col < 0 {
			alt[i].Col = cur[i].Col // no free group: the net keeps its column
		}
		moved = moved || alt[i].Col != cur[i].Col
	}
	if !moved {
		return nil
	}
	if len(nets) == 1 {
		return [][]rgraph.FeedPos{alt}
	}
	right := make([]rgraph.FeedPos, len(alt))
	for i, f := range alt {
		right[i] = rgraph.FeedPos{Row: f.Row, Col: f.Col + 1}
	}
	if left == nets[0] {
		return [][]rgraph.FeedPos{alt, right}
	}
	return [][]rgraph.FeedPos{right, alt}
}
