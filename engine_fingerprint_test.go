package repro_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/chanroute"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/routedb"
	_ "repro/internal/seqroute"
	_ "repro/internal/steiner"
)

// perNetFingerprints pins the routedb sha256 of the per-net engines on
// every paper data set, constrained ("con") and not ("unc"). The golden
// tables and the determinism tests cover the concurrent engine only; this
// is the byte-level contract for "sequential" and "steiner".
var perNetFingerprints = map[string]string{
	"sequential/C1P1/con": "f72e76a0c35498c2ba9dc100b384eac478215310fc5671ccb9861ef836557ce1",
	"sequential/C1P1/unc": "3bc1ba0e35097188104beb911fc05694df5ec020db68c568edc9ea0bc7e126bf",
	"steiner/C1P1/con":    "f72e76a0c35498c2ba9dc100b384eac478215310fc5671ccb9861ef836557ce1",
	"steiner/C1P1/unc":    "3bc1ba0e35097188104beb911fc05694df5ec020db68c568edc9ea0bc7e126bf",
	"sequential/C1P2/con": "f8af3be2768f834ea17ad2f747e5d10a889ce36c738810186b4d1a38b395246a",
	"sequential/C1P2/unc": "50809daa406d88b0ccc460e97ab553a35fc009553924167fcaed106be4d8183e",
	"steiner/C1P2/con":    "f8af3be2768f834ea17ad2f747e5d10a889ce36c738810186b4d1a38b395246a",
	"steiner/C1P2/unc":    "50809daa406d88b0ccc460e97ab553a35fc009553924167fcaed106be4d8183e",
	"sequential/C2P1/con": "0c150feae7f1f378a00c9eb89e9dfbc9f43c832180b751d9ca30ec3a57f70561",
	"sequential/C2P1/unc": "f9396ff19cb09925ef7dbb10bb2e3cdfc62046b270ee94a510b1dc19cb02f77d",
	"steiner/C2P1/con":    "0c150feae7f1f378a00c9eb89e9dfbc9f43c832180b751d9ca30ec3a57f70561",
	"steiner/C2P1/unc":    "f9396ff19cb09925ef7dbb10bb2e3cdfc62046b270ee94a510b1dc19cb02f77d",
	"sequential/C2P2/con": "35e90fdbaa2428e367ff8cb947cb67d66ea7841bdfa6ae28288d8c6980126fa6",
	"sequential/C2P2/unc": "7724056b8cd74a351744e84b667105a701f4c2859609c8195309d83e82b130cd",
	"steiner/C2P2/con":    "35e90fdbaa2428e367ff8cb947cb67d66ea7841bdfa6ae28288d8c6980126fa6",
	"steiner/C2P2/unc":    "7724056b8cd74a351744e84b667105a701f4c2859609c8195309d83e82b130cd",
	"sequential/C3P1/con": "ca2c9112f5544adb14853ee73a99e85d087268a32b25d46b18f57a48b0eb556a",
	"sequential/C3P1/unc": "ea9e1eb07e6fa624289c22736967a5327493033e46ee310e61395e7e858959b2",
	"steiner/C3P1/con":    "ca2c9112f5544adb14853ee73a99e85d087268a32b25d46b18f57a48b0eb556a",
	"steiner/C3P1/unc":    "ea9e1eb07e6fa624289c22736967a5327493033e46ee310e61395e7e858959b2",
}

func TestPerNetEngineFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("full dataset sweep in -short mode")
	}
	for _, name := range gen.DatasetNames() {
		p, err := gen.Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		ckt, err := gen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []string{"sequential", "steiner"} {
			for _, mode := range []struct {
				tag string
				use bool
			}{{"con", true}, {"unc", false}} {
				key := eng + "/" + name + "/" + mode.tag
				res, err := engine.Route(t.Context(), eng, ckt, engine.Config{UseConstraints: mode.use})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				cr, err := chanroute.Route(res.Ckt, res.Graphs)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				db, err := routedb.Build(res, cr)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				out, err := routedb.Marshal(db)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				sum := sha256.Sum256(out)
				if got := hex.EncodeToString(sum[:]); got != perNetFingerprints[key] {
					t.Errorf("%q: %q, // routedb changed", key, got)
				}
			}
		}
	}
}
