package main

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEndDefs are the metrics a user of the system sees, measured
// with tracing off. fail_ratio is not among them: it is 0 on every
// accepted run, so it is reported as the failed/attempted pair. Nor is
// op_p50_ms: the latency of a small op does not repeat from run to run
// (README, "Bounds"), so it is reported with the per-layer metrics.
var endToEndDefs = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "blob_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// perLayerDefs are the single-layer metrics of the traced run. Times
// and counts are per op (means over the traced ops), so a run of any
// length reads the same; probe rates are per corpus.
var perLayerDefs = []metricDef{
	{Name: "containerfile.build_ms", Unit: "ms", Better: "lower"},
	{Name: "containerfile.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "frontend.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.extend_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.layer_kb", Unit: "KB", Better: "lower"},
	{Name: "cache.read_ms", Unit: "ms", Better: "lower"},
	{Name: "distrib.push_ms", Unit: "ms", Better: "lower"},
	{Name: "distrib.pull_ms", Unit: "ms", Better: "lower"},
	{Name: "distrib.client_req_n", Unit: "count", Better: "lower"},
	{Name: "distrib.client_err_n", Unit: "count", Better: "lower"},
	{Name: "distrib.client_wire_kb", Unit: "KB", Better: "lower"},
	{Name: "fleet.proxy_req_n", Unit: "count", Better: "lower"},
	{Name: "fleet.proxy_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.proxy_self_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.fanout_x", Unit: "ratio", Better: "lower"},
	{Name: "fleet.replicate_n", Unit: "count", Better: "lower"},
	{Name: "fleet.replicate_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.blob_get_n", Unit: "count", Better: "lower"},
	{Name: "registry.blob_get_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.blob_head_n", Unit: "count", Better: "lower"},
	{Name: "registry.upload_n", Unit: "count", Better: "lower"},
	{Name: "registry.upload_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.manifest_n", Unit: "count", Better: "lower"},
	{Name: "registry.manifest_ms", Unit: "ms", Better: "lower"},
	{Name: "distrib.store_ingest_n", Unit: "count", Better: "lower"},
	{Name: "distrib.store_ingest_ms", Unit: "ms", Better: "lower"},
	{Name: "distrib.store_ingest_kb", Unit: "KB", Better: "lower"},
	{Name: "distrib.store_open_n", Unit: "count", Better: "lower"},
	{Name: "distrib.store_open_ms", Unit: "ms", Better: "lower"},
	{Name: "distrib.store_has_n", Unit: "count", Better: "lower"},
	{Name: "oci.pull_local_ms", Unit: "ms", Better: "lower"},
	{Name: "oci.load_flatten_ms", Unit: "ms", Better: "lower"},
	{Name: "oci.write_image_ms", Unit: "ms", Better: "lower"},
	{Name: "oci.append_layer_ms", Unit: "ms", Better: "lower"},
	{Name: "tarfs.unmarshal_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "tarfs.marshal_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "tarfs.gzip_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fsim.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "fsim.diff_ms", Unit: "ms", Better: "lower"},
	{Name: "fsim.clone_ms", Unit: "ms", Better: "lower"},
	{Name: "digest.mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "backend.rebuild_ms", Unit: "ms", Better: "lower"},
	{Name: "backend.redirect_ms", Unit: "ms", Better: "lower"},
	{Name: "actioncache.get_n", Unit: "count", Better: "lower"},
	{Name: "actioncache.get_ms", Unit: "ms", Better: "lower"},
	{Name: "actioncache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "actioncache.put_n", Unit: "count", Better: "lower"},
	{Name: "actioncache.put_ms", Unit: "ms", Better: "lower"},
	{Name: "actioncache.put_kb", Unit: "KB", Better: "lower"},
	{Name: "actioncache.dedup_n", Unit: "count", Better: "higher"},
	{Name: "toolchain.exec_n", Unit: "count", Better: "lower"},
	{Name: "toolchain.run_us", Unit: "us", Better: "lower"},
	{Name: "cclang.parse_us", Unit: "us", Better: "lower"},
	{Name: "remoteexec.remote_n", Unit: "count", Better: "higher"},
	{Name: "remoteexec.fallback_n", Unit: "count", Better: "lower"},
	{Name: "remoteexec.err_n", Unit: "count", Better: "lower"},
	{Name: "remoteexec.submit_n", Unit: "count", Better: "lower"},
	{Name: "remoteexec.lease_n", Unit: "count", Better: "lower"},
	{Name: "remoteexec.lease_empty_ratio", Unit: "ratio", Better: "lower"},
	{Name: "remoteexec.status_n", Unit: "count", Better: "lower"},
	{Name: "remoteexec.result_n", Unit: "count", Better: "lower"},
	{Name: "remoteexec.sched_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "remoteexec.data_kb", Unit: "KB", Better: "lower"},
	{Name: "remoteexec.action_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "chrun.run_ms", Unit: "ms", Better: "lower"},
	{Name: "sysprofile.populate_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
}

// inOp reports whether a per-layer time is spent inside the op, so
// that its share of the op's wall time means something. Probe times
// are per image or per command, measured outside any op.
func inOp(name string) bool {
	switch name {
	case "cache.read_ms", "oci.load_flatten_ms", "oci.write_image_ms", "oci.append_layer_ms",
		"fsim.apply_ms", "fsim.diff_ms", "fsim.clone_ms", "remoteexec.action_rtt_ms", "sysprofile.populate_ms", "op_p50_ms":
		return false
	}
	return true
}

// ratio is a/b, 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns the traced rounds' spans and counters, and the
// probes' results, into the per-layer metrics. Every metric is present
// on every workload; a layer the workload does not cross reads 0.
func layerMetrics(a aggregate, ops float64, probes map[string]float64) map[string]float64 {
	ms := func(name string) float64 { return a.ms[name] / ops }
	n := func(name string) float64 { return a.n[name] / ops }
	cnt := func(name string) float64 { return a.counts[name] / ops }
	kb := func(name string) float64 { return a.counts[name] / ops / 1e3 }

	// Requests that reach a shard directly (not replication traffic)
	// all come from the proxy, so their time is the proxy's children.
	var shardN, shardMs float64
	for _, route := range []string{"blob_get", "blob_head", "upload", "manifest", "other"} {
		shardN += a.n["registry."+route]
		shardMs += a.ms["registry."+route]
	}
	memoLookups := a.counts["actioncache.hits"] + a.counts["actioncache.misses"]

	out := map[string]float64{
		"containerfile.build_ms":        ms("containerfile.parse") + ms("containerfile.build"),
		"containerfile.cache_hit_ratio": ratio(a.counts["containerfile.hits"], a.counts["containerfile.lookups"]),
		"frontend.analyze_ms":           ms("frontend.analyze"),
		"cache.extend_ms":               ms("cache.extend"),
		"cache.layer_kb":                kb("cache.layer_bytes"),
		"distrib.push_ms":               ms("distrib.push"),
		"distrib.pull_ms":               ms("distrib.pull"),
		"distrib.client_req_n":          n("distrib.client_req"),
		"distrib.client_err_n":          cnt("distrib.client_err"),
		"distrib.client_wire_kb":        kb("distrib.client_wire_bytes"),
		"fleet.proxy_req_n":             n("fleet.proxy"),
		"fleet.proxy_busy_ms":           ms("fleet.proxy"),
		"fleet.proxy_self_ms":           ms("fleet.proxy") - shardMs/ops,
		"fleet.fanout_x":                ratio(shardN, a.n["fleet.proxy"]),
		"fleet.replicate_n":             n("fleet.replicate"),
		"fleet.replicate_ms":            ms("fleet.replicate"),
		"registry.blob_get_n":           n("registry.blob_get"),
		"registry.blob_get_ms":          ms("registry.blob_get"),
		"registry.blob_head_n":          n("registry.blob_head"),
		"registry.upload_n":             n("registry.upload"),
		"registry.upload_ms":            ms("registry.upload"),
		"registry.manifest_n":           n("registry.manifest"),
		"registry.manifest_ms":          ms("registry.manifest"),
		"distrib.store_ingest_n":        n("distrib.store_ingest"),
		"distrib.store_ingest_ms":       ms("distrib.store_ingest"),
		"distrib.store_ingest_kb":       kb("distrib.store_ingest_bytes"),
		"distrib.store_open_n":          n("distrib.store_open"),
		"distrib.store_open_ms":         ms("distrib.store_open"),
		"distrib.store_has_n":           cnt("distrib.store_has"),
		"oci.pull_local_ms":             ms("oci.pull_local"),
		"backend.rebuild_ms":            ms("backend.rebuild"),
		"backend.redirect_ms":           ms("backend.redirect"),
		"actioncache.get_n":             n("actioncache.get"),
		"actioncache.get_ms":            ms("actioncache.get"),
		"actioncache.hit_ratio":         ratio(a.counts["actioncache.hits"], memoLookups),
		"actioncache.put_n":             n("actioncache.put"),
		"actioncache.put_ms":            ms("actioncache.put"),
		"actioncache.put_kb":            kb("actioncache.put_bytes"),
		"actioncache.dedup_n":           cnt("actioncache.deduped"),
		// Actions the rebuild executed itself: cache misses without a
		// farm, fallbacks with one.
		"toolchain.exec_n":             cnt("actioncache.misses") + cnt("remoteexec.local"),
		"remoteexec.remote_n":          cnt("remoteexec.remote"),
		"remoteexec.fallback_n":        cnt("remoteexec.local"),
		"remoteexec.err_n":             cnt("remoteexec.errors"),
		"remoteexec.submit_n":          n("remoteexec.submit"),
		"remoteexec.lease_n":           n("remoteexec.lease"),
		"remoteexec.lease_empty_ratio": ratio(a.counts["remoteexec.lease_empty"], a.n["remoteexec.lease"]),
		"remoteexec.status_n":          n("remoteexec.status"),
		"remoteexec.result_n":          n("remoteexec.result"),
		// Lease parking is idle workers waiting, not the scheduler
		// working, so it is left out.
		"remoteexec.sched_busy_ms": ms("remoteexec.submit") + ms("remoteexec.status") + ms("remoteexec.result"),
		"remoteexec.data_kb":       kb("remoteexec.data_bytes"),
		"chrun.run_ms":             ms("chrun.run"),
		// Measured around every NewUserSide/NewSystemSide of the
		// traced instance's rounds, all outside the windows.
		"sysprofile.populate_ms": ratio(a.ms["sysprofile.populate"], a.n["sysprofile.populate"]),
	}
	for k, v := range probes {
		out[k] = v
	}
	return out
}
