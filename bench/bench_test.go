package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"comtainer/internal/digest"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/workloads"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		t.Fatal(err)
	}
	return def
}

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json and the program
// to the same workloads and the same metrics, name by name.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	def := readBenchmarkFile(t)
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	strip := func(defs []metricDef) []metricDef {
		out := append([]metricDef(nil), defs...)
		for i := range out {
			out[i].Bound = nil
		}
		return out
	}
	if !reflect.DeepEqual(strip(def.EndToEnd), endToEndDefs) {
		t.Errorf("end_to_end differs:\n file    %+v\n program %+v", strip(def.EndToEnd), endToEndDefs)
	}
	if !reflect.DeepEqual(def.PerLayer, perLayerDefs) {
		t.Errorf("per_layer differs:\n file    %+v\n program %+v", def.PerLayer, perLayerDefs)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), def.EndToEnd...), def.PerLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
	for _, d := range def.EndToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", d.Name)
		}
	}
	if def.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds %d, the round counts are sized for %d", def.RunSeconds, referenceSeconds)
	}
	for _, name := range workloadNames {
		if ops := measuredRounds(name, referenceSeconds) * len(corpusApps()); ops < 110 {
			t.Errorf("%s measures %d ops, op_p90_ms needs 110", name, ops)
		}
	}
	if len(def.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(def.PerLayer))
	}
}

// sharedCorpus builds, once for all tests, a corpus of four Table-2
// applications and the synthetic ones at an eighth of their size, with
// its references: the tests check what the harness does, not how long
// the system takes, and tier-1 `go test ./...` has ten seconds for this
// package.
var sharedCorpus = sync.OnceValues(func() (*corpus, error) {
	apps := workloads.Apps()[:4:4]
	for _, app := range synthApps() {
		app.NumSrcFiles = max(4, app.NumSrcFiles/8)
		app.SrcMiB /= 8
		app.DataMiB /= 8
		apps = append(apps, app)
	}
	c, err := buildCorpus(apps)
	if err != nil {
		return nil, err
	}
	return c, c.adaptReferences(context.Background())
})

func testConfig(t *testing.T) *config {
	t.Helper()
	c, err := sharedCorpus()
	if err != nil {
		t.Fatal(err)
	}
	return &config{seed: 1, rounds: 1, corpus: c, workdir: t.TempDir()}
}

// TestSmoke runs every workload traced for one pair of rounds — one
// plain, one decomposed — and checks that nothing fails, that every
// metric is emitted, and that each workload moves the layers it is
// there to move and leaves the others at zero.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	layers := map[string]map[string]float64{}
	for _, name := range workloadNames {
		cfg := testConfig(t)
		cfg.traced = true
		res, err := runWorkload(ctx, cfg, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed != 0 || res.Attempted != 2*len(cfg.corpus.images) {
			t.Errorf("%s: %d of %d ops failed: %+v", name, res.Failed, res.Attempted, res.Failures)
		}
		for _, d := range endToEndDefs {
			if v, ok := res.EndToEnd[d.Name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end %s = %v, must be measured and never 0", name, d.Name, v)
			}
		}
		if len(res.EndToEnd) != len(endToEndDefs) || len(res.PerLayer) != len(perLayerDefs) {
			t.Errorf("%s: emitted %d end-to-end and %d per-layer metrics, defined %d and %d",
				name, len(res.EndToEnd), len(res.PerLayer), len(endToEndDefs), len(perLayerDefs))
		}
		for _, d := range perLayerDefs {
			if _, ok := res.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer %s not emitted", name, d.Name)
			}
		}
		var summary struct {
			Correct bool
			Metrics map[string]struct{ Unit string }
		}
		last, err := lastLine([]*result{res}, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(last, &summary); err != nil || !summary.Correct || len(summary.Metrics) != len(perLayerDefs) {
			t.Errorf("%s: last line: %v, %+v", name, err, summary)
		}
		layers[name] = res.PerLayer
	}
	if t.Failed() {
		return
	}

	zero := func(workload string, metrics ...string) {
		t.Helper()
		for _, m := range metrics {
			if v := layers[workload][m]; v != 0 {
				t.Errorf("%s: %s = %v, want 0", workload, m, v)
			}
		}
	}
	positive := func(workload string, metrics ...string) {
		t.Helper()
		for _, m := range metrics {
			if v := layers[workload][m]; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", workload, m, v)
			}
		}
	}
	positive("publish", "containerfile.build_ms", "containerfile.cache_hit_ratio", "frontend.analyze_ms", "cache.extend_ms",
		"cache.layer_kb", "distrib.push_ms", "distrib.client_req_n", "fleet.proxy_req_n", "fleet.replicate_n",
		"registry.upload_n", "registry.manifest_n", "distrib.store_ingest_n", "distrib.store_ingest_kb", "sysprofile.populate_ms")
	zero("publish", "distrib.pull_ms", "registry.blob_get_n", "backend.rebuild_ms", "actioncache.get_n", "remoteexec.remote_n", "distrib.client_err_n")
	positive("pull", "distrib.pull_ms", "distrib.client_req_n", "distrib.client_wire_kb", "fleet.proxy_req_n", "fleet.proxy_self_ms",
		"registry.blob_get_n", "registry.manifest_n", "distrib.store_open_n")
	zero("pull", "fleet.replicate_n", "fleet.replicate_ms", "registry.upload_n", "distrib.store_ingest_n", "distrib.push_ms",
		"containerfile.build_ms", "backend.rebuild_ms", "actioncache.get_n", "actioncache.put_n", "remoteexec.remote_n", "distrib.client_err_n")
	if x := layers["pull"]["fleet.fanout_x"]; x != 1 {
		t.Errorf("pull: fleet.fanout_x = %v, a relayed read is one shard request", x)
	}
	for _, w := range []string{"adapt-cold", "adapt-warm", "adapt-farm"} {
		positive(w, "oci.pull_local_ms", "backend.rebuild_ms", "backend.redirect_ms", "chrun.run_ms", "sysprofile.populate_ms")
		zero(w, "fleet.proxy_req_n", "distrib.client_req_n", "registry.blob_get_n", "registry.upload_n", "fleet.replicate_n",
			"distrib.store_ingest_n", "containerfile.build_ms", "distrib.push_ms", "distrib.pull_ms")
	}
	positive("adapt-cold", "actioncache.put_n", "actioncache.put_kb", "actioncache.get_n", "toolchain.exec_n")
	zero("adapt-cold", "actioncache.hit_ratio", "remoteexec.remote_n", "remoteexec.submit_n")
	if cold := layers["adapt-cold"]; cold["actioncache.put_n"] <= cold["actioncache.get_n"] {
		t.Errorf("adapt-cold: %v puts, %v gets; a cold cache is written more than it is read", cold["actioncache.put_n"], cold["actioncache.get_n"])
	}
	positive("adapt-warm", "actioncache.get_n")
	zero("adapt-warm", "actioncache.put_n", "toolchain.exec_n", "remoteexec.remote_n", "remoteexec.submit_n")
	if r := layers["adapt-warm"]["actioncache.hit_ratio"]; r != 1 {
		t.Errorf("adapt-warm: actioncache.hit_ratio = %v, want 1", r)
	}
	positive("adapt-farm", "remoteexec.remote_n", "remoteexec.submit_n", "remoteexec.lease_n", "remoteexec.status_n",
		"remoteexec.result_n", "remoteexec.sched_busy_ms", "remoteexec.data_kb", "remoteexec.action_rtt_ms")
	zero("adapt-farm", "remoteexec.fallback_n", "remoteexec.err_n", "toolchain.exec_n", "actioncache.get_n", "actioncache.put_n")
	// The exact counts agree across the three ways of executing the
	// same actions.
	actions := layers["adapt-cold"]["toolchain.exec_n"]
	if got := layers["adapt-farm"]["remoteexec.remote_n"]; got != actions {
		t.Errorf("the farm ran %v actions per op, the cold rebuild %v", got, actions)
	}
	if got := layers["adapt-farm"]["remoteexec.submit_n"]; got != actions {
		t.Errorf("%v submits per op for %v actions", got, actions)
	}
}

// TestOracleCatchesAWrongReference breaks one reference digest and
// expects that image — and only it — to fail, and the command to exit
// non-zero.
func TestOracleCatchesAWrongReference(t *testing.T) {
	cfg := testConfig(t)
	broken := cfg.corpus.images[0].name()
	right := cfg.corpus.refs[broken].rebuilt
	defer func() { cfg.corpus.refs[broken].rebuilt = right }() // the corpus is shared
	cfg.afterSetup = func(c *corpus) {
		c.refs[broken].rebuilt = digest.FromString("not the rebuilt image")
	}
	res, err := runWorkload(context.Background(), cfg, "adapt-warm")
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || len(res.Failures) != 1 || res.Failures[0].Image != broken || res.Failures[0].Step != "rebuild" {
		t.Errorf("failed = %d, failures = %+v", res.Failed, res.Failures)
	}
	if last, err := lastLine([]*result{res}, false); err != nil || !strings.Contains(string(last), `"correct":false`) {
		t.Errorf("last line does not report the run as wrong: %s, %v", last, err)
	}
	if code := run(context.Background(), cfg, []string{"adapt-warm"}, 1, "", ""); code == 0 {
		t.Error("the command exits 0 with a failed op")
	}
}

// TestOracleCatchesAFlippedByte flips one byte of a pulled layer.
func TestOracleCatchesAFlippedByte(t *testing.T) {
	repo := oci.NewRepository()
	layer := fsim.New()
	layer.WriteFile("/app/bin", []byte("the application"), 0o755)
	desc, err := oci.WriteImage(repo.Store, oci.ImageConfig{Architecture: "amd64", OS: "linux"}, []*fsim.FS{layer})
	if err != nil {
		t.Fatal(err)
	}
	repo.Tag("app", desc)
	if fails := checkPulled(repo, "app", "app", desc.Digest); len(fails) != 0 {
		t.Fatalf("intact image fails: %+v", fails)
	}
	if fails := checkPulled(repo, "app", "app", digest.FromString("another manifest")); len(fails) != 1 || fails[0].Step != "manifest" {
		t.Errorf("wrong manifest digest: %+v", fails)
	}
	m, err := oci.LoadManifest(repo.Store, desc.Digest)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := repo.Store.Get(m.Layers[0].Digest)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 1 // the store hands out its own bytes
	fails := checkPulled(repo, "app", "app", desc.Digest)
	if len(fails) != 1 || fails[0].Step != "blob" || fails[0].Image != "app" {
		t.Errorf("flipped byte: %+v", fails)
	}
}

// TestCompareSets: two sets repeat when they are within the bound of
// each other, whichever of them is the better one.
func TestCompareSets(t *testing.T) {
	file := filepath.Join(t.TempDir(), "BENCHMARK.json")
	def := `{"end_to_end": [{"name": "op_p90_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`
	if err := os.WriteFile(file, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	set := func(v float64) []*result {
		return []*result{{Workload: "pull", EndToEnd: map[string]float64{"op_p90_ms": v}}}
	}
	for _, c := range []struct {
		first, second float64
		within        bool
	}{{10, 10.9, true}, {10.9, 10, true}, {10, 14, false}, {14, 10, false}} {
		within, err := compareSets(set(c.first), set(c.second), file)
		if err != nil {
			t.Fatal(err)
		}
		if within != c.within {
			t.Errorf("sets reading %v and %v: within = %v", c.first, c.second, within)
		}
	}
}

func TestCorpusOrderIsSeeded(t *testing.T) {
	c := &corpus{}
	for _, n := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		c.images = append(c.images, &image{app: synthApps()[0], manifest: digest.FromString(n)})
	}
	key := func(seed int64, k int) string {
		var b strings.Builder
		for _, im := range c.order(seed, k) {
			b.WriteString(im.manifest.Short())
		}
		return b.String()
	}
	if key(1, 1) != key(1, 1) {
		t.Error("the same seed and round give different orders")
	}
	if key(1, 1) == key(2, 1) || key(1, 1) == key(1, 2) {
		t.Error("another seed or round gives the same order")
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(v, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
