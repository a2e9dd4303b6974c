package routedb

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/chanroute"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
)

func buildDB(t *testing.T) (*engine.Result, *chanroute.Result, *DB) {
	t.Helper()
	res, err := core.Route(circuit.SampleSmall(), engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := chanroute.Route(res.Ckt, res.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Build(res, cr)
	if err != nil {
		t.Fatal(err)
	}
	return res, cr, db
}

func TestBuildCompleteness(t *testing.T) {
	res, cr, db := buildDB(t)
	if db.Circuit != res.Ckt.Name || db.Cols != res.Ckt.Cols || db.Rows != res.Ckt.Rows {
		t.Fatal("geometry header wrong")
	}
	if len(db.Nets) != len(res.Ckt.Nets) {
		t.Fatalf("nets = %d, want %d", len(db.Nets), len(res.Ckt.Nets))
	}
	if len(db.Channels) != res.Ckt.Channels() {
		t.Fatalf("channels = %d, want %d", len(db.Channels), res.Ckt.Channels())
	}
	for n, dn := range db.Nets {
		if dn.LengthUm != cr.NetLenUm[n] {
			t.Errorf("net %s: length %v, want %v", dn.Name, dn.LengthUm, cr.NetLenUm[n])
		}
		// Every terminal appears among the pin connections (terminals
		// with two used positions appear twice).
		want := len(res.Ckt.Terminals(n))
		if len(dn.Pins) < want {
			t.Errorf("net %s: %d pin connections for %d terminals", dn.Name, len(dn.Pins), want)
		}
		if len(dn.Wires) == 0 {
			t.Errorf("net %s: no wires", dn.Name)
		}
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripJSON(t *testing.T) {
	_, _, db := buildDB(t)
	var buf bytes.Buffer
	if err := Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(db, back) {
		t.Fatal("JSON round trip lost information")
	}
}

func TestReadRejectsUnknownFields(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte(`{"circuit":"x","bogus":1}`))); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	_, _, db := buildDB(t)
	good := db.Nets[0].Wires[0]
	db.Nets[0].Wires[0].Hi = db.Cols + 5
	if err := db.Validate(); err == nil {
		t.Fatal("out-of-chip wire accepted")
	}
	db.Nets[0].Wires[0] = good
	db.Nets[0].Wires[0].Track = 9999
	if err := db.Validate(); err == nil {
		t.Fatal("impossible track accepted")
	}
}
