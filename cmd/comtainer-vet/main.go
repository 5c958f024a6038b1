// Command comtainer-vet runs coMtainer's custom static-analysis suite
// — the multichecker over internal/analysis/passes — enforcing the
// repository's digest, filesystem and resource-lifecycle invariants:
//
//	digestcmp     typed digest construction and comparison
//	safejoin      sanitized joins for tar entry names and fsim paths
//	errpropagate  no discarded errors from the storage packages
//	ctxflow       received contexts are plumbed, not discarded
//	bodyclose     *http.Response bodies closed on every path (CFG)
//	closeleak     acquired io.Closers closed or handed off on every path (CFG)
//	timerstop     time.Timer/Ticker stopped on every path (CFG)
//
// Invariants that are a banned spelling rather than a dataflow fact (no
// time.Sleep, no raw digest.Digest conversion, no function-style
// sync/atomic, no os.WriteFile past the faultinject seam, a known few go
// statements and WaitGroups, each join shown by a test) are
// budgeted greps in scripts/bans.sh, not analyzers. Shared state is
// checked by the race detector: each type with a mutex has a test that
// drives its locked methods from several goroutines.
//
// Usage:
//
//	go run ./cmd/comtainer-vet ./...
//	go run ./cmd/comtainer-vet -only errpropagate,safejoin ./internal/distrib
//	go run ./cmd/comtainer-vet -sarif ./... > vet.sarif
//	go run ./cmd/comtainer-vet -list
//
// There is one way to run: every matched package is loaded from source
// and analyzed, about a second for this repository. Findings print as
// path:line:col: [analyzer] message; -sarif writes the same findings,
// plus the ones a //comtainer:allow comment suppresses (marked as
// such), as a SARIF 2.1.0 log. Exit status is 1 when any diagnostic
// survives the suppression filter, 2 on an operational error. The
// loader is self-contained (stdlib + the go command); it is not a
// `go vet -vettool` unitchecker because this module deliberately
// carries no golang.org/x/tools dependency.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"comtainer/internal/analysis"
	"comtainer/internal/analysis/passes"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list analyzers and exit")
		only     = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		dir      = flag.String("C", ".", "directory to resolve package patterns in")
		sarifOut = flag.Bool("sarif", false, "emit findings as SARIF 2.1.0, suppressed ones included (for GitHub code scanning upload)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: comtainer-vet [-list] [-only a,b] [-C dir] [-sarif] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := passes.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		var err error
		if suite, err = suite.ByName(strings.Split(*only, ",")...); err != nil {
			fail(fmt.Errorf("-only: %w", err))
		}
	}

	pkgs, err := analysis.Load(*dir, flag.Args()...)
	if err != nil {
		fail(err)
	}
	diags, err := analysis.CheckPackages(pkgs, suite)
	if err != nil {
		fail(err)
	}
	if *sarifOut {
		root, err := filepath.Abs(*dir)
		if err != nil {
			root = *dir
		}
		out, err := analysis.EncodeSARIF(diags, suite, root)
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(out)
	}
	findings := 0
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		findings++
		if !*sarifOut {
			fmt.Println(d)
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "comtainer-vet: %d diagnostic(s)\n", findings)
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "comtainer-vet: %v\n", err)
	os.Exit(2)
}
