package repro_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/chanroute"
	"repro/internal/core"
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

// concurrentFingerprints pins the routedb sha256 of the concurrent engine
// on every paper data set under six configurations that run the §3.5
// improvement loop: constrained ("con"), unconstrained ("unc"), ablation
// A1 ("area-first"), ablation A6 ("no-feed-reroute"), the Elmore model at
// r = 0.0005 kΩ/µm ("elmore"), and a constrained ReOptimize of the
// unconstrained route ("eco"). The golden tables pin only summary numbers
// of the first two.
var concurrentFingerprints = map[string]string{
	"C1P1/con":             "978cb7c3b69e12e32dda1567ebe98f293be42179479b0d2cd94201ef0f9ef4fa",
	"C1P1/unc":             "9a3e8378b73b757cf15bcb6c762981135ecb81578ec86414e4af2576fd204442",
	"C1P1/area-first":      "978cb7c3b69e12e32dda1567ebe98f293be42179479b0d2cd94201ef0f9ef4fa",
	"C1P1/no-feed-reroute": "978cb7c3b69e12e32dda1567ebe98f293be42179479b0d2cd94201ef0f9ef4fa",
	"C1P1/elmore":          "978cb7c3b69e12e32dda1567ebe98f293be42179479b0d2cd94201ef0f9ef4fa",
	"C1P1/eco":             "9a3e8378b73b757cf15bcb6c762981135ecb81578ec86414e4af2576fd204442",
	"C1P2/con":             "14309dbe64e09bdea16456318fd9d6dacfd73b0bcf9fa0f3c9c6c0a4e8085982",
	"C1P2/unc":             "035f1cda53d415e46feee58a500e4410f551e5aa97b30e60ce19972c14e7a26e",
	"C1P2/area-first":      "14309dbe64e09bdea16456318fd9d6dacfd73b0bcf9fa0f3c9c6c0a4e8085982",
	"C1P2/no-feed-reroute": "4c3138144a2dca198e43529c5f490d009edba8e34cc8b66e01fb3596f29d77f0",
	"C1P2/elmore":          "14309dbe64e09bdea16456318fd9d6dacfd73b0bcf9fa0f3c9c6c0a4e8085982",
	"C1P2/eco":             "31b48cb66fb5d0e54d49cf574cde854513d5ddf92324727e324e74fdb2f7a589",
	"C2P1/con":             "2f4645d205fcfe4785e7e7973a9c8acea43c7d0db3bffbf910464cb6c2ad3d2d",
	"C2P1/unc":             "2b98fb3c38960aab5eed79620dfaa729d0ce397ff33c49ad80f6ea9cf37c42c2",
	"C2P1/area-first":      "64b063fb26c3561782f1de23c71b1d2e09f44ab754d5f4cf980d7b12985ed6a5",
	"C2P1/no-feed-reroute": "2d6a5e881b4e4eea4e82ae3462c7e8a1582dc044c869c9c7d69090fb0e38b832",
	"C2P1/elmore":          "2f4645d205fcfe4785e7e7973a9c8acea43c7d0db3bffbf910464cb6c2ad3d2d",
	"C2P1/eco":             "3bcb5d65e1b4b6eaf8f3b5aa841aefe49e5c95e5d520a29923527caf888149b7",
	"C2P2/con":             "4ca6e22141cd368604b4b38f8200fa4b72da3d578e3fa7d9a193eab7ee870e8b",
	"C2P2/unc":             "a1bc9e7aab118ddc239157ad7fbd26231a452e9c34caa848469fcba0a92157a0",
	"C2P2/area-first":      "e2f3ff748c71c0161de565e1b49b3c9afd539a09e14be17bd4e785ed6e1279db",
	"C2P2/no-feed-reroute": "053f0171e0f8d898516f85d73dcbac12224345c06af715499c18c5531e60042f",
	"C2P2/elmore":          "4ca6e22141cd368604b4b38f8200fa4b72da3d578e3fa7d9a193eab7ee870e8b",
	"C2P2/eco":             "0383e7c63eff1d9462044d862776a47c4439f11d9a84a05265f5dd23b7fef2d0",
	"C3P1/con":             "6ef12308d3a9ecc63778de638c56e99296f67353f926ad217595cb407c7ac116",
	"C3P1/unc":             "fa4dba9f9125b34d7c25609c1efd5e56f2b36b239d6c5ce2b466b222f6c6de02",
	"C3P1/area-first":      "ee1bd567d95e4af99c43f81417fb9bb664fa6e953a2a617b6d3eb2c02e52978d",
	"C3P1/no-feed-reroute": "d3220fcb9e3bf3612f05973e2b680879b4dad27b205b9ccaa611810008e14e4b",
	"C3P1/elmore":          "6ef12308d3a9ecc63778de638c56e99296f67353f926ad217595cb407c7ac116",
	"C3P1/eco":             "dda79147fba1197edb9f0ee376bf7a9af5c907bfd864a7e5ada52019939f314c",
}

func TestConcurrentEngineFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("full dataset sweep in -short mode")
	}
	configs := []struct {
		tag string
		cfg engine.Config
	}{
		{"con", engine.Config{UseConstraints: true}},
		{"unc", engine.Config{}},
		{"area-first", engine.Config{UseConstraints: true, AreaFirst: true}},
		{"no-feed-reroute", engine.Config{UseConstraints: true, NoFeedReroute: true}},
		{"elmore", engine.Config{UseConstraints: true, DelayModel: engine.Elmore, RPerUm: 0.0005}},
	}
	check := func(key string, res *engine.Result) {
		t.Helper()
		sum := sha256.Sum256(fingerprint(t, res))
		if got := hex.EncodeToString(sum[:]); got != concurrentFingerprints[key] {
			t.Errorf("%q: %q, // routedb changed", key, got)
		}
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
		var unc *engine.Result
		for _, c := range configs {
			res, err := core.Route(ckt, c.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, c.tag, err)
			}
			if c.tag == "unc" {
				unc = res
			}
			check(name+"/"+c.tag, res)
		}
		eco, err := core.ReOptimize(unc, engine.Config{UseConstraints: true})
		if err != nil {
			t.Fatalf("%s/eco: %v", name, err)
		}
		check(name+"/eco", eco)
	}
}
