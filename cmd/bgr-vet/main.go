// Command bgr-vet runs the repo-specific determinism-and-invariant static
// analysis suite (internal/lint) over the given package patterns and
// exits non-zero when any diagnostic — including a stale //bgr:allow
// suppression — survives. Exit status 1 means diagnostics; exit status 2
// means the run itself failed (the packages could not be listed, parsed
// or type-checked) and must never be read as a pass.
//
// Usage:
//
//	go run ./cmd/bgr-vet ./...
//	go run ./cmd/bgr-vet -list
//
// See docs/LINT.md for the analyzers and the suppression directive.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	dir := flag.String("dir", ".", "directory to resolve package patterns from")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bgr-vet [flags] [packages]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			scope := "all packages"
			if a.DeterministicOnly {
				scope = "deterministic packages"
			}
			fmt.Printf("%-14s %s (%s)\n", a.Name, a.Doc, scope)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bgr-vet: %v\n", err)
		os.Exit(2)
	}

	diags := lint.Run(pkgs, analyzers)
	if abs, aerr := filepath.Abs(*dir); aerr == nil {
		lint.Relativize(diags, abs)
	}

	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "bgr-vet: %d diagnostic(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bgr-vet: %d package(s) clean\n", len(pkgs))
}
