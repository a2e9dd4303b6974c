// Command bgr-view routes a circuit and serves an inspection page — the
// SVG chip drawing, the timing report and the ASCII layout — over HTTP on
// localhost.
//
// By default it runs an embedded routing service (internal/service) and
// mounts the service's job endpoints, so the page is backed by the same
// API a bgr-serve deployment exposes: /jobs/{id}/svg, /jobs/{id}/timing,
// /jobs/{id}/layout, /jobs/{id}/routedb and /metrics all work.
//
// Usage:
//
//	bgr-view -dataset C1P1 -addr 127.0.0.1:8080
//	bgr-view -i design.ckt
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"html"
	"net/http"
	"os"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/service"
)

func main() {
	var (
		in      = flag.String("i", "", "input circuit file (text format)")
		dataset = flag.String("dataset", "", "generate a preset data set instead of reading a file")
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address")
		uncon   = flag.Bool("unconstrained", false, "route without timing constraints")
	)
	flag.Parse()

	ckt, err := load(*in, *dataset)
	if err != nil {
		fatal(err)
	}

	// Render the circuit back to its text form: the service consumes the
	// same payload a remote client would POST.
	var cktText bytes.Buffer
	if err := circuit.Format(&cktText, ckt); err != nil {
		fatal(err)
	}
	svc := service.New(service.Options{Workers: 1})
	res, err := svc.Submit(service.SubmitRequest{
		Circuit: cktText.String(),
		Config:  &service.JobConfig{UseConstraints: !*uncon},
	})
	if err != nil {
		fatal(err)
	}
	st, err := svc.Wait(context.Background(), res.Job.ID)
	if err != nil {
		fatal(err)
	}
	if st.State != service.Done {
		fatal(fmt.Errorf("routing %s: %s", st.State, st.Error))
	}
	payload := res.Job.Payload()

	mux := http.NewServeMux()
	mux.Handle("/jobs", svc.Handler())
	mux.Handle("/jobs/", svc.Handler())
	mux.Handle("/metrics", svc.Handler())
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		s := payload.Summary
		fmt.Fprintf(w, `<!DOCTYPE html>
<html><head><title>%s — routed</title>
<style>body{font-family:monospace;margin:2em}pre{background:#f6f6f6;padding:1em;overflow:auto}</style>
</head><body>
<h1>%s</h1>
<p>%d nets, %d constraints, %.3f mm², %.2f mm wire, %d tracks
— <a href="/jobs/%s/routedb">routedb</a> · <a href="/jobs/%s">job</a> · <a href="/metrics">metrics</a></p>
<object data="/jobs/%s/svg" type="image/svg+xml" style="width:100%%;border:1px solid #ccc"></object>
<h2>Timing</h2><pre>%s</pre>
<h2>Layout</h2><pre>%s</pre>
</body></html>`,
			html.EscapeString(ckt.Name), html.EscapeString(ckt.Name),
			s.Nets, s.Constraints, s.AreaMm2, s.WirelenMm, s.Tracks,
			res.Job.ID, res.Job.ID, res.Job.ID,
			html.EscapeString(payload.Timing), html.EscapeString(payload.Layout))
	})
	fmt.Printf("bgr-view: serving %s on http://%s/ (job %s)\n", ckt.Name, *addr, res.Job.ID)
	if err := http.ListenAndServe(*addr, mux); err != nil {
		fatal(err)
	}
}

func load(in, dataset string) (*circuit.Circuit, error) {
	switch {
	case in != "" && dataset != "":
		return nil, fmt.Errorf("use either -i or -dataset, not both")
	case dataset != "":
		p, err := gen.Dataset(dataset)
		if err != nil {
			return nil, err
		}
		return gen.Generate(p)
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return circuit.Parse(f)
	}
	return nil, fmt.Errorf("need -i <file> or -dataset <name>")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bgr-view:", err)
	os.Exit(1)
}
