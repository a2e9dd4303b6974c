package routedb_test

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/chanroute"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/routedb"
)

// TestGoldenRoundTripStable pins the canonical serialization: parsing the
// committed golden file and re-marshalling it must reproduce the file
// byte for byte. This is what lets the routing service compare cached and
// freshly-routed responses as raw bytes.
func TestGoldenRoundTripStable(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	db, err := routedb.Read(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	out, err := routedb.Marshal(db)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, golden) {
		t.Fatalf("marshal(read(golden)) differs from golden (%d vs %d bytes);\n"+
			"the routedb JSON form must stay round-trip stable", len(out), len(golden))
	}
}

// TestFreshRouteRoundTrip routes the example circuit and requires
// marshal → unmarshal → marshal to be byte-identical, and Write to emit
// exactly Marshal's bytes.
func TestFreshRouteRoundTrip(t *testing.T) {
	f, err := os.Open("../../examples/data/invchain.ckt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ckt, err := circuit.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Route(ckt, engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := chanroute.Route(res.Ckt, res.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	db, err := routedb.Build(res, cr)
	if err != nil {
		t.Fatal(err)
	}
	first, err := routedb.Marshal(db)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := routedb.Read(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	second, err := routedb.Marshal(db2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("routedb JSON is not round-trip stable (%d vs %d bytes)", len(first), len(second))
	}
	var viaWrite bytes.Buffer
	if err := routedb.Write(&viaWrite, db); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaWrite.Bytes(), first) {
		t.Fatalf("Write output differs from Marshal output")
	}
	if err := db2.Validate(); err != nil {
		t.Fatalf("round-tripped database fails validation: %v", err)
	}
}
