package experiments

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// CSV writers give every regenerated table and figure a machine-readable
// form, so the results can be re-plotted against the paper's charts.

// writeCSV writes rows (first row = header) to path, creating parents.
func writeCSV(path string, rows [][]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("experiments: creating %s: %w", filepath.Dir(path), err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiments: creating %s: %w", path, err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		return fmt.Errorf("experiments: writing %s: %w", path, err)
	}
	w.Flush()
	return w.Error()
}

func f2s(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// ExportAll regenerates everything and writes one CSV per table/figure
// into dir. It returns the files written.
func ExportAll(env *Environment, dir string) ([]string, error) {
	type file struct {
		name string
		rows [][]string
	}
	f3, err := Figure3(env)
	if err != nil {
		return nil, err
	}
	f3csv := [][]string{{"system", "cost_s", "libo_s", "cxxo_s", "lto_s", "pgo_s"}}
	for _, r := range f3 {
		f3csv = append(f3csv, []string{r.System, f2s(r.Cost), f2s(r.Libo), f2s(r.Cxxo), f2s(r.LTO), f2s(r.PGO)})
	}
	files := []file{{"figure3.csv", f3csv}}
	for _, sysName := range []string{"x86-64", "aarch64"} {
		rows, err := Figure9(env, sysName)
		if err != nil {
			return nil, err
		}
		f9csv := [][]string{{"system", "workload", "original_s", "native_s", "adapted_s", "optimized_s"}}
		for _, r := range rows {
			f9csv = append(f9csv, []string{sysName, r.ID, f2s(r.Original), f2s(r.Native), f2s(r.Adapted), f2s(r.Optimized)})
		}
		f10csv := [][]string{{"system", "workload", "original_rel", "adapted_rel", "optimized_rel"}}
		for _, r := range Figure10(rows) {
			f10csv = append(f10csv, []string{sysName, r.ID, f2s(r.Original), f2s(r.Adapted), f2s(r.Optimized)})
		}
		slug := strings.ReplaceAll(sysName, "-", "")
		files = append(files, file{"figure9_" + slug + ".csv", f9csv}, file{"figure10_" + slug + ".csv", f10csv})
	}
	t3, err := Table3(env)
	if err != nil {
		return nil, err
	}
	t3csv := [][]string{{"app", "image_x86_mib", "image_arm_mib", "cache_mib"}}
	for _, r := range t3 {
		t3csv = append(t3csv, []string{r.App, f2s(r.ImageX86), f2s(r.ImageArm), f2s(r.Cache)})
	}
	f11, failed, err := Figure11(env)
	if err != nil {
		return nil, err
	}
	f11csv := [][]string{{"app", "comtainer_lines", "xbuild_lines", "crossed"}}
	for _, r := range f11 {
		f11csv = append(f11csv, []string{r.App, strconv.Itoa(r.CoMtainer), strconv.Itoa(r.XBuild), "true"})
	}
	for _, app := range failed {
		f11csv = append(f11csv, []string{app, "", "", "false"})
	}
	files = append(files, file{"table3.csv", t3csv}, file{"figure11.csv", f11csv})

	var written []string
	for _, f := range files {
		path := filepath.Join(dir, f.name)
		if err := writeCSV(path, f.rows); err != nil {
			return nil, err
		}
		written = append(written, path)
	}
	return written, nil
}
