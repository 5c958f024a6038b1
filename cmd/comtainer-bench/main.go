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
	run := func(what string, fn func() error) {
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "comtainer-bench: %s: %v\n", what, err)
			os.Exit(1)
		}
	}
	want := func(t, f int) bool {
		return *all || *table == t || *figure == f
	}
	any := false

	if want(1, 0) {
		any = true
		fmt.Println(experiments.RenderTable1())
	}
	if want(2, 0) {
		any = true
		fmt.Println(experiments.RenderTable2())
	}
	if want(0, 3) {
		any = true
		run("figure 3", func() error {
			rows, err := experiments.Figure3(env)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderFigure3(rows))
			return nil
		})
	}
	if want(0, 9) || want(0, 10) {
		any = true
		run("figures 9/10", func() error {
			for _, sys := range []string{"x86-64", "aarch64"} {
				rows, err := experiments.Figure9(env, sys)
				if err != nil {
					return err
				}
				if *all || *figure == 9 {
					fmt.Println(experiments.RenderFigure9(sys, rows))
				}
				if *all || *figure == 10 {
					fmt.Println(experiments.RenderFigure10(sys, experiments.Figure10(rows)))
				}
			}
			return nil
		})
	}
	if want(3, 0) {
		any = true
		run("table 3", func() error {
			rows, err := experiments.Table3(env)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderTable3(rows))
			return nil
		})
	}
	if want(0, 11) {
		any = true
		run("figure 11", func() error {
			rows, failed, err := experiments.Figure11(env)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderFigure11(rows, failed))
			return nil
		})
	}
	if !any {
		fmt.Fprintln(os.Stderr, "usage: comtainer-bench -all | -table {1,2,3} | -figure {3,9,10,11}")
		os.Exit(2)
	}
}
