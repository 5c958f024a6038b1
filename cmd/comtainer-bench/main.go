// Command comtainer-bench regenerates the tables and figures of the
// paper's evaluation section by driving the full pipeline: builds,
// analyses, rebuilds, redirects and simulated runs.
//
// Usage:
//
//	comtainer-bench -all
//	comtainer-bench -table 3
//	comtainer-bench -figure 9
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"comtainer/internal/experiments"
)

func main() {
	table := flag.Int("table", 0, "regenerate a table (1, 2 or 3)")
	figure := flag.Int("figure", 0, "regenerate a figure (3, 9, 10 or 11)")
	all := flag.Bool("all", false, "regenerate everything")
	csvDir := flag.String("csv", "", "also export every result as CSV into this directory")
	check := flag.Bool("check", false, "verify every paper claim against this run and exit non-zero on drift")
	flag.Parse()

	env := experiments.NewEnvironment()
	if *check {
		results, err := experiments.Check(env)
		if err != nil {
			fmt.Fprintln(os.Stderr, "comtainer-bench: check:", err)
			os.Exit(1)
		}
		text, ok := experiments.RenderChecks(results)
		fmt.Print(text)
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *csvDir != "" {
		files, err := experiments.ExportAll(env, *csvDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "comtainer-bench: csv export:", err)
			os.Exit(1)
		}
		for _, f := range files {
			fmt.Println("wrote", f)
		}
		if !*all && *table == 0 && *figure == 0 {
			return
		}
	}
	printed, err := render(os.Stdout, env, *all, *table, *figure)
	if err != nil {
		fmt.Fprintln(os.Stderr, "comtainer-bench:", err)
		os.Exit(1)
	}
	if !printed {
		fmt.Fprintln(os.Stderr, "usage: comtainer-bench -all | -table {1,2,3} | -figure {3,9,10,11}")
		os.Exit(2)
	}
}

// render prints every table and figure with all set, otherwise exactly
// the table and the figure named (0 names none). It reports whether it
// printed anything.
func render(w io.Writer, env *experiments.Environment, all bool, table, figure int) (bool, error) {
	wantTable := func(n int) bool { return all || table == n }
	wantFigure := func(n int) bool { return all || figure == n }
	printed := false
	if wantTable(1) {
		printed = true
		fmt.Fprintln(w, experiments.RenderTable1())
	}
	if wantTable(2) {
		printed = true
		fmt.Fprintln(w, experiments.RenderTable2())
	}
	if wantFigure(3) {
		printed = true
		rows, err := experiments.Figure3(env)
		if err != nil {
			return printed, fmt.Errorf("figure 3: %w", err)
		}
		fmt.Fprintln(w, experiments.RenderFigure3(rows))
	}
	if wantFigure(9) || wantFigure(10) {
		printed = true
		for _, sys := range []string{"x86-64", "aarch64"} {
			rows, err := experiments.Figure9(env, sys)
			if err != nil {
				return printed, fmt.Errorf("figures 9/10: %w", err)
			}
			if wantFigure(9) {
				fmt.Fprintln(w, experiments.RenderFigure9(sys, rows))
			}
			if wantFigure(10) {
				fmt.Fprintln(w, experiments.RenderFigure10(sys, experiments.Figure10(rows)))
			}
		}
	}
	if wantTable(3) {
		printed = true
		rows, err := experiments.Table3(env)
		if err != nil {
			return printed, fmt.Errorf("table 3: %w", err)
		}
		fmt.Fprintln(w, experiments.RenderTable3(rows))
	}
	if wantFigure(11) {
		printed = true
		rows, failed, err := experiments.Figure11(env)
		if err != nil {
			return printed, fmt.Errorf("figure 11: %w", err)
		}
		fmt.Fprintln(w, experiments.RenderFigure11(rows, failed))
	}
	return printed, nil
}
