package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// spanID indexes a recorded span; noSpan marks "no span" (an untraced
// call, or a root's parent).
type spanID int32

const noSpan spanID = -1

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one operation share Op; setup and the
// verification replays use negative op ids.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Op ids of the spans recorded outside the timed operations.
const (
	opSetup  = -1
	opReplay = -2
)

// tracer records spans into a slice allocated up front, so recording
// costs two clock reads and no allocation. Slots are claimed with an
// atomic counter: the service workload's client goroutines record
// concurrently, each writing only the slots it claimed. A nil *tracer
// records nothing, which is how untraced calls are made.
type tracer struct {
	t0      time.Time
	spans   []span
	next    atomic.Int32
	dropped atomic.Int32
}

// traceCapacity bounds the spans one run keeps; a default run records
// a few thousand.
const traceCapacity = 1 << 16

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, traceCapacity)}
}

// begin opens a span named name under parent.
func (t *tracer) begin(parent spanID, op int, name string) spanID {
	if t == nil {
		return noSpan
	}
	i := t.next.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.dropped.Add(1)
		return noSpan
	}
	t.spans[i] = span{ID: i, Parent: int32(parent), Op: int32(op), Name: name, Start: int64(time.Since(t.t0))}
	return spanID(i)
}

// end closes a span opened by begin.
func (t *tracer) end(id spanID) {
	if t == nil || id == noSpan {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// recorded returns the spans recorded so far. Call it only after every
// goroutine that records has finished.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// layerTime is the accumulated self time of one span name.
type layerTime struct {
	self  time.Duration
	calls int
}

// meanMs is the mean self time per call in milliseconds (0 if never
// called).
func (l layerTime) meanMs() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.self) / float64(l.calls) / 1e6
}

// selfTimes sums each span name's self time: a span's duration minus
// the part of its interval that its child spans cover.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		self := s.End - s.Start - covered(spans, s, children[s.ID])
		l := out[s.Name]
		l.self += time.Duration(self)
		l.calls++
		out[s.Name] = l
	}
	return out
}

// covered returns how much of parent's interval the union of the child
// spans covers.
func covered(spans []span, parent span, kids []int32) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := spans[k]
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the recorded spans as a JSON array.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
