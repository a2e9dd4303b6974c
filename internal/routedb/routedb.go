// Package routedb serializes finished global routings to JSON — the
// handoff a detailed router or downstream flow step would consume. The
// format is self-contained: net names, chosen terminal positions, trunk
// intervals per channel with track assignments, feedthroughs, and the
// chip geometry after feed-cell insertion.
package routedb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/chanroute"
	"repro/internal/engine"
	"repro/internal/rgraph"
)

// DB is the serialized routing database.
type DB struct {
	Circuit  string    `json:"circuit"`
	Cols     int       `json:"cols"`
	Rows     int       `json:"rows"`
	WidthUm  float64   `json:"width_um"`
	HeightUm float64   `json:"height_um"`
	AreaMm2  float64   `json:"area_mm2"`
	Channels []Channel `json:"channels"`
	Nets     []Net     `json:"nets"`
}

// Channel is one channel's final track usage.
type Channel struct {
	Index  int `json:"index"`
	Tracks int `json:"tracks"`
}

// Net is one routed net.
type Net struct {
	Name     string    `json:"name"`
	Pitch    int       `json:"pitch"`
	LengthUm float64   `json:"length_um"`
	DiffMate string    `json:"diff_mate,omitempty"`
	Feeds    []Feed    `json:"feeds,omitempty"`
	Wires    []Wire    `json:"wires"`
	Pins     []PinConn `json:"pins"`
}

// Feed is a feedthrough crossing of a cell row.
type Feed struct {
	Row int `json:"row"`
	Col int `json:"col"`
}

// Wire is one horizontal trunk piece on its assigned track.
type Wire struct {
	Channel int  `json:"channel"`
	Lo      int  `json:"lo"`
	Hi      int  `json:"hi"`
	Track   int  `json:"track"` // -1 for straight-throughs
	Dogleg  bool `json:"dogleg,omitempty"`
}

// PinConn records where a terminal finally connects.
type PinConn struct {
	Terminal string `json:"terminal"`
	Channel  int    `json:"channel"`
	Col      int    `json:"col"`
}

// Build assembles the database from a global routing and its channel
// routing.
func Build(res *engine.Result, cr *chanroute.Result) (*DB, error) {
	ckt := res.Ckt
	db := &DB{
		Circuit:  ckt.Name,
		Cols:     ckt.Cols,
		Rows:     ckt.Rows,
		WidthUm:  cr.WidthUm,
		HeightUm: cr.HeightUm,
		AreaMm2:  cr.AreaMm2,
	}
	for ci := range cr.Channels {
		db.Channels = append(db.Channels, Channel{Index: ci, Tracks: cr.Channels[ci].Tracks})
	}
	nets := make([]Net, len(ckt.Nets))
	for n := range ckt.Nets {
		nets[n] = Net{
			Name:     ckt.Nets[n].Name,
			Pitch:    ckt.Nets[n].Pitch,
			LengthUm: cr.NetLenUm[n],
		}
		if m := ckt.Nets[n].DiffMate; m >= 0 {
			nets[n].DiffMate = ckt.Nets[m].Name
		}
		for _, f := range res.Feeds[n] {
			nets[n].Feeds = append(nets[n].Feeds, Feed{Row: f.Row, Col: f.Col})
		}
		// Final pin connections: alive correspondence edges name the
		// chosen positions.
		g := res.Graphs[n]
		terms := ckt.Terminals(n)
		for _, e := range g.AliveEdges() {
			ed := &g.Edges[e]
			if ed.Kind != rgraph.ECorr {
				continue
			}
			pv := ed.U
			if g.Verts[pv].Kind != rgraph.VPos {
				pv = ed.V
			}
			ti := g.Verts[pv].Term
			if ti < 0 || ti >= len(terms) {
				return nil, fmt.Errorf("routedb: net %s: dangling correspondence edge", ckt.Nets[n].Name)
			}
			nets[n].Pins = append(nets[n].Pins, PinConn{
				Terminal: ckt.PinName(terms[ti]),
				Channel:  g.Verts[pv].Ch,
				Col:      g.Verts[pv].Col,
			})
		}
		sort.Slice(nets[n].Pins, func(a, b int) bool {
			if nets[n].Pins[a].Terminal != nets[n].Pins[b].Terminal {
				return nets[n].Pins[a].Terminal < nets[n].Pins[b].Terminal
			}
			return nets[n].Pins[a].Col < nets[n].Pins[b].Col
		})
	}
	for ci := range cr.Channels {
		for _, s := range cr.Channels[ci].Segments {
			nets[s.Net].Wires = append(nets[s.Net].Wires, Wire{
				Channel: ci, Lo: s.Lo, Hi: s.Hi, Track: s.Track, Dogleg: s.Dogleg,
			})
		}
	}
	for n := range nets {
		sort.Slice(nets[n].Wires, func(a, b int) bool {
			wa, wb := nets[n].Wires[a], nets[n].Wires[b]
			if wa.Channel != wb.Channel {
				return wa.Channel < wb.Channel
			}
			return wa.Lo < wb.Lo
		})
	}
	db.Nets = nets
	return db, nil
}

// Marshal renders the database in the canonical on-disk form: indented
// JSON with a trailing newline, exactly what Write emits. The form is
// stable under round-trips (Marshal → Read → Marshal is byte-identical),
// so independently produced databases can be compared as raw bytes —
// which is how the service's result cache guarantees cached and
// freshly-routed responses agree.
func Marshal(db *DB) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(db); err != nil {
		return nil, fmt.Errorf("routedb: %w", err)
	}
	return buf.Bytes(), nil
}

// Write emits the database as indented JSON.
func Write(w io.Writer, db *DB) error {
	b, err := Marshal(db)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Read parses a database written by Write.
func Read(r io.Reader) (*DB, error) {
	var db DB
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&db); err != nil {
		return nil, fmt.Errorf("routedb: %w", err)
	}
	return &db, nil
}

// Validate performs consistency checks a consumer would rely on: wires
// stay inside the chip and their tracks inside their channel, and every
// net has at least two pin connections.
func (db *DB) Validate() error {
	tracks := map[int]int{}
	for _, c := range db.Channels {
		tracks[c.Index] = c.Tracks
	}
	for _, n := range db.Nets {
		if len(n.Pins) < 2 {
			return fmt.Errorf("routedb: net %s has %d pin connections", n.Name, len(n.Pins))
		}
		for _, w := range n.Wires {
			if w.Lo > w.Hi || w.Lo < 0 || w.Hi >= db.Cols {
				return fmt.Errorf("routedb: net %s wire [%d,%d] outside chip", n.Name, w.Lo, w.Hi)
			}
			max, ok := tracks[w.Channel]
			if !ok {
				return fmt.Errorf("routedb: net %s wire in unknown channel %d", n.Name, w.Channel)
			}
			if w.Track >= max || (w.Track < 0 && w.Lo != w.Hi) {
				return fmt.Errorf("routedb: net %s wire track %d outside channel %d (%d tracks)",
					n.Name, w.Track, w.Channel, max)
			}
		}
	}
	return nil
}
