package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http/httptest"
	"testing"

	"repro/internal/wire"
)

// startWire exposes svc on an ephemeral TCP port speaking the wire
// protocol and returns the address.
func startWire(t *testing.T, svc *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := svc.ServeWire(ln); err != nil {
			t.Errorf("ServeWire: %v", err)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

func dialWire(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestWireMatchesHTTP is the transport-equivalence contract: the same
// circuit submitted over the binary protocol and over HTTP produces
// byte-identical artifacts, and the two transports share one result
// cache.
func TestWireMatchesHTTP(t *testing.T) {
	ckt := readExample(t)
	svc := New(Options{Workers: 1, Logf: func(string, ...any) {}})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	addr := startWire(t, svc)
	c := dialWire(t, addr)

	rep, err := c.Submit(ckt, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cached || rep.Dedup {
		t.Fatalf("first wire submit: %+v", rep)
	}
	statusJSON, err := c.Wait(rep.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.Unmarshal(statusJSON, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != Done || st.Summary == nil {
		t.Fatalf("wire job did not finish cleanly: %+v", st)
	}
	wireDB, err := c.Result(rep.ID, wire.KindRouteDB)
	if err != nil {
		t.Fatal(err)
	}
	wireTiming, err := c.Result(rep.ID, wire.KindTiming)
	if err != nil {
		t.Fatal(err)
	}

	// The HTTP submission of the identical circuit must be a cache hit
	// (shared cache across transports) serving the same bytes.
	httpRep := postJob(t, ts.URL, map[string]any{"circuit": ckt})
	if !httpRep.Cached {
		t.Fatalf("HTTP submit after wire submit not cached: %+v", httpRep)
	}
	httpDB := getBody(t, ts.URL+"/jobs/"+httpRep.ID+"/routedb", 200)
	httpTiming := getBody(t, ts.URL+"/jobs/"+httpRep.ID+"/timing", 200)
	if !bytes.Equal(wireDB, httpDB) {
		t.Fatal("wire and HTTP routedb bytes differ")
	}
	if !bytes.Equal(wireTiming, httpTiming) {
		t.Fatal("wire and HTTP timing bytes differ")
	}

	// And the batch router agrees with both.
	directDB, directTiming := directRun(t, ckt)
	if !bytes.Equal(wireDB, directDB) {
		t.Fatal("wire routedb differs from direct routing")
	}
	if string(wireTiming) != directTiming {
		t.Fatal("wire timing differs from direct routing")
	}

	// A second wire submission is a cache hit too.
	rep2, err := c.Submit(ckt, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Cached {
		t.Fatalf("second wire submit not cached: %+v", rep2)
	}

	m := svc.Metrics()
	if m.WireConns != 1 || m.WireFrames == 0 {
		t.Fatalf("wire metrics: conns=%d frames=%d", m.WireConns, m.WireFrames)
	}
}

// TestDeprecatedShardsAccepted keeps old clients working: a config that
// still carries the removed "shards" or "workers" fields is accepted over
// HTTP and over the wire, and lands on the same cache slot (same hash,
// same bytes) as the submission without them.
func TestDeprecatedShardsAccepted(t *testing.T) {
	ckt := readExample(t)
	svc := New(Options{Workers: 1, Logf: silentLogf})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := dialWire(t, startWire(t, svc))

	base := postJob(t, ts.URL, map[string]any{"circuit": ckt})
	if st := pollDone(t, ts.URL, base.ID); st.State != Done {
		t.Fatalf("base job: state %s, error %q", st.State, st.Error)
	}
	wantDB := getBody(t, ts.URL+"/jobs/"+base.ID+"/routedb", 200)
	hashOf := func(id string) string {
		j, ok := svc.Job(id)
		if !ok {
			t.Fatalf("job %s not found", id)
		}
		return j.Hash
	}
	wantHash := hashOf(base.ID)

	for _, extra := range []string{`"shards":4`, `"workers":4`, `"shards":2,"workers":4`} {
		cfg := []byte(`{"use_constraints":true,` + extra + `}`)
		httpRep := postJob(t, ts.URL, map[string]any{"circuit": ckt, "config": json.RawMessage(cfg)})
		if !httpRep.Cached || hashOf(httpRep.ID) != wantHash {
			t.Fatalf("HTTP submit with %s missed the base cache slot: %+v", extra, httpRep)
		}
		if got := getBody(t, ts.URL+"/jobs/"+httpRep.ID+"/routedb", 200); !bytes.Equal(got, wantDB) {
			t.Fatalf("HTTP submit with %s served different routedb bytes", extra)
		}

		wireRep, err := c.Submit(ckt, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !wireRep.Cached || hashOf(wireRep.ID) != wantHash {
			t.Fatalf("wire submit with %s missed the base cache slot: %+v", extra, wireRep)
		}
		got, err := c.Result(wireRep.ID, wire.KindRouteDB)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantDB) {
			t.Fatalf("wire submit with %s served different routedb bytes", extra)
		}
	}
}

// TestWirePipelining stages a burst of requests in one flush and
// expects the responses strictly in request order.
func TestWirePipelining(t *testing.T) {
	ckt := readExample(t)
	svc := New(Options{Workers: 1, Logf: func(string, ...any) {}})
	defer svc.Shutdown(context.Background())
	addr := startWire(t, svc)
	c := dialWire(t, addr)

	cfgJSON, _ := json.Marshal(DefaultJobConfig())
	if err := c.Send(wire.TPing, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(wire.TSubmit, wire.EncodeSubmit(cfgJSON, 0, []byte(ckt))); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(wire.TPing, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	f, err := c.Recv()
	if err != nil || f.Type != wire.TPong || string(f.Payload) != "one" {
		t.Fatalf("response 1: %+v err=%v", f, err)
	}
	f, err = c.Recv()
	if err != nil || f.Type != wire.TSubmitted {
		t.Fatalf("response 2: %+v err=%v", f, err)
	}
	rep, err := wire.DecodeSubmitted(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	f, err = c.Recv()
	if err != nil || f.Type != wire.TPong || string(f.Payload) != "two" {
		t.Fatalf("response 3: %+v err=%v", f, err)
	}

	// Wait + fetch over the same connection still works after a burst.
	if _, err := c.Wait(rep.ID); err != nil {
		t.Fatal(err)
	}
	db, err := c.Result(rep.ID, wire.KindRouteDB)
	if err != nil {
		t.Fatal(err)
	}
	if len(db) == 0 || db[0] != '{' {
		t.Fatalf("routedb over pipelined connection looks wrong: %q...", db[:min(16, len(db))])
	}
}

// TestWireOversizeFrame sends a frame whose length prefix exceeds the
// server cap: the server must answer CodeTooLarge, count it, and close
// the connection without reading the payload.
func TestWireOversizeFrame(t *testing.T) {
	svc := New(Options{Workers: 1, MaxFrameBytes: 1024, Logf: func(string, ...any) {}})
	defer svc.Shutdown(context.Background())
	addr := startWire(t, svc)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hdr := make([]byte, wire.HeaderLen)
	hdr[0] = wire.TSubmit
	binary.BigEndian.PutUint32(hdr[1:], 1<<20) // far past the 1 KiB cap
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(conn, 0)
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TErr {
		t.Fatalf("got frame type 0x%02x, want TErr", f.Type)
	}
	if re := wire.DecodeError(f.Payload); re.Code != wire.CodeTooLarge {
		t.Fatalf("got %+v, want CodeTooLarge", re)
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("connection not closed after oversize frame: %v", err)
	}
	if m := svc.Metrics(); m.WireOversize != 1 {
		t.Fatalf("wire_rejected_oversize = %d, want 1", m.WireOversize)
	}
}

// TestWireErrors covers the error frames: unknown job, bad circuit,
// unknown frame type (which also closes the connection).
func TestWireErrors(t *testing.T) {
	svc := New(Options{Workers: 1, Logf: func(string, ...any) {}})
	defer svc.Shutdown(context.Background())
	addr := startWire(t, svc)
	c := dialWire(t, addr)

	var re *wire.RemoteError
	if _, err := c.Status("no-such-job"); !errors.As(err, &re) || re.Code != wire.CodeNotFound {
		t.Fatalf("unknown job: %v", err)
	}
	if _, err := c.Submit("not a circuit", nil, 0); !errors.As(err, &re) || re.Code != wire.CodeBadRequest {
		t.Fatalf("bad circuit: %v", err)
	}
	if _, err := c.Submit(readExample(t), []byte(`{"bogus_field":1}`), 0); !errors.As(err, &re) || re.Code != wire.CodeBadRequest {
		t.Fatalf("bad config: %v", err)
	}

	// Unknown frame type: one TErr response, then the server hangs up.
	c2 := dialWire(t, addr)
	if err := c2.Send(0x7F, nil); err != nil {
		t.Fatal(err)
	}
	if err := c2.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Recv(); !errors.As(err, &re) || re.Code != wire.CodeBadRequest {
		t.Fatalf("unknown frame type: %v", err)
	}
	if _, err := c2.Recv(); err != io.EOF {
		t.Fatalf("connection not closed after unknown frame type: %v", err)
	}
}
