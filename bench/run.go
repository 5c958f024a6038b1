package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"comtainer/internal/digest"
)

// timedSetups is how many times a run sets up; setup_s is the median.
const timedSetups = 3

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64 // sizes the measured window, see measuredRounds
	traced  bool
	workdir string // scratch root, inside the checkout
	// traceOut, when set, receives the traced run's Chrome trace.
	traceOut string

	// The rest is for tests. rounds, when positive, is the number of
	// measured rounds whatever seconds says. corpus, when set, is used
	// instead of building one, set-up then runs once, and the warm-up
	// round is left out: a test builds one small corpus and shares it.
	// afterSetup runs on the corpus once set-up is done; a test breaks a
	// reference there and watches the oracle fire.
	rounds     int
	corpus     *corpus
	afterSetup func(*corpus)
}

// referenceSeconds is the --seconds that baseRounds is sized for, the
// run_seconds of BENCHMARK.json.
const referenceSeconds = 20

// baseRounds is how many rounds each workload measures at
// referenceSeconds. A round count, not a clock, ends the window, so a
// faster and a slower commit measure the same ops. Every count gives at
// least 110 ops (14 a round), so that op_p90_ms has ten samples beyond
// it; the counts differ because a round of adapt-farm takes 30 times a
// round of pull, and all the driver's runs have to fit its hour.
var baseRounds = map[string]int{"publish": 8, "pull": 40, "adapt-cold": 10, "adapt-warm": 16, "adapt-farm": 8}

// measuredRounds scales baseRounds to the --seconds asked for.
func measuredRounds(name string, seconds float64) int {
	return max(1, int(math.Round(float64(baseRounds[name])*seconds/referenceSeconds)))
}

// instance is one set-up of one workload: corpus, servers, caches.
type instance struct {
	env *env
	w   workload
}

// newInstance sets a workload up on a corpus. The instance owns
// env.dir and removes it on close.
func newInstance(ctx context.Context, cfg *config, name string, c *corpus, tr *tracer) (*instance, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, name+"-*")
	if err != nil {
		return nil, err
	}
	e := &env{name: name, corpus: c, seed: cfg.seed, nproc: runtime.NumCPU(), dir: dir, tr: tr}
	w, err := newWorkload(name, e)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	in := &instance{env: e, w: w}
	if err := w.setup(ctx); err != nil {
		in.close(ctx)
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	return in, nil
}

func (in *instance) close(ctx context.Context) {
	in.w.close(ctx)
	_ = os.RemoveAll(in.env.dir) // scratch
}

// window is what one measured round yields.
type window struct {
	wall      float64   // ms
	latencies []float64 // ms, one per op
	images    []string  // the image of each op
	cpu       float64   // ms of process user+sys CPU
	alloc     float64   // bytes allocated
	bytes     int64     // bytes added to the destination
	fails     []failure
	digests   map[string]digest.Digest
}

// runRound runs round k of an instance: state creation, the timed
// window, verification, tear-down. Only the window is measured.
func runRound(ctx context.Context, in *instance, k int) (window, error) {
	var w window
	rd, err := in.w.newRound(ctx, k)
	if err != nil {
		return w, fmt.Errorf("round %d state: %w", k, err)
	}
	defer rd.close(ctx)
	order := in.env.corpus.order(in.env.seed, k)

	// Start every window from a flushed page cache and a collected
	// heap: an fsync inside the window then waits for the window's own
	// dirty data only, not for what earlier rounds and runs left
	// behind, and the garbage of state creation is not collected on
	// this round's clock.
	syscall.Sync()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuMillis()
	if in.env.tr != nil {
		in.env.tr.on.Store(true)
	}
	t0 := time.Now()
	for _, im := range order {
		endOp := func() {}
		if in.env.tr != nil {
			endOp = in.env.tr.beginOp(in.env.name, im.name())
		}
		t := time.Now()
		err := rd.op(ctx, im)
		w.latencies = append(w.latencies, since(t))
		w.images = append(w.images, im.name())
		endOp()
		if err != nil {
			w.fails = append(w.fails, failure{im.name(), "op", err.Error()})
		}
	}
	w.wall = since(t0)
	if in.env.tr != nil {
		in.env.tr.on.Store(false)
	}
	w.cpu = cpuMillis() - c0
	runtime.ReadMemStats(&m1)
	w.alloc = float64(m1.TotalAlloc - m0.TotalAlloc)

	bytes, fails := rd.finish(ctx)
	w.bytes = bytes
	w.fails = append(w.fails, fails...)
	w.digests = rd.digests()
	return w, nil
}

// since is time.Since in milliseconds.
func since(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// cpuMillis is the process's user+system CPU time so far. In-process
// servers and farm workers are part of the process and so included.
func cpuMillis() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// result is one workload's run.
type result struct {
	Workload  string               `json:"workload"`
	Rounds    int                  `json:"rounds"`
	RoundMs   []float64            `json:"round_ms"` // wall time of each plain round
	RoundCPU  []float64            `json:"round_cpu_ms_per_op"`
	ImageMs   map[string][]float64 `json:"image_ms"`  // plain op latency per image, one per round
	Attempted int                  `json:"attempted"` // ops run, the warm-up round's included
	Failed    int                  `json:"failed"`
	Failures  []failure            `json:"failures,omitempty"`
	EndToEnd  map[string]float64   `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64   `json:"per_layer,omitempty"`
	// OpMs is the mean op wall time of the traced rounds, the base of
	// each layer's share.
	OpMs float64 `json:"op_ms,omitempty"`
}

// tally accumulates windows.
type tally struct {
	rounds    []float64 // wall ms per round
	latencies []float64
	byImage   map[string][]float64
	cpu       []float64 // CPU ms per op, per round
	alloc     float64
	bytes     int64
	fails     []failure
	failedOps int
}

func (t *tally) add(w window) {
	t.rounds = append(t.rounds, w.wall)
	t.latencies = append(t.latencies, w.latencies...)
	if t.byImage == nil {
		t.byImage = map[string][]float64{}
	}
	for i, name := range w.images {
		t.byImage[name] = append(t.byImage[name], w.latencies[i])
	}
	t.cpu = append(t.cpu, w.cpu/float64(len(w.latencies)))
	t.alloc += w.alloc
	t.bytes += w.bytes
	t.fails = append(t.fails, w.fails...)
	t.failedOps += failedOps(w.fails)
}

func (t *tally) elapsed() float64 {
	var s float64
	for _, r := range t.rounds {
		s += r
	}
	return s / 1e3
}

// endToEnd computes the user-visible metrics of the plain rounds.
// Timings are medians — over rounds for throughput and CPU, over ops
// for latency — so one stalled round does not move them.
func (t *tally) endToEnd(corpusSize int, setupS float64) map[string]float64 {
	ops := float64(len(t.latencies))
	return map[string]float64{
		"ops_per_s":       float64(corpusSize) / (median(t.rounds) / 1e3),
		"op_p90_ms":       quantile(t.latencies, 0.90),
		"cpu_ms_per_op":   median(t.cpu),
		"alloc_mb_per_op": t.alloc / ops / 1e6,
		"blob_kb_per_op":  float64(t.bytes) / ops / 1e3,
		"setup_s":         setupS,
	}
}

// runWorkload sets a workload up, warms it with one untimed round and
// measures a fixed number of rounds (see measuredRounds).
//
// Untraced, set-up runs timedSetups times and the median is reported;
// the last set-up is the one measured on. Traced, one corpus carries a
// plain and a traced instance whose rounds alternate over the same
// inputs, a quarter as many pairs as the untraced run has rounds and at
// least three: the traced rounds give the per-layer numbers, the plain
// ones the baseline for the tracing overhead, and each pair must
// produce the same digests.
func runWorkload(ctx context.Context, cfg *config, name string) (*result, error) {
	res := &result{Workload: name}
	var plain, traced *instance
	var tr *tracer
	defer func() {
		if plain != nil {
			plain.close(ctx)
		}
		if traced != nil {
			traced.close(ctx)
		}
	}()

	var setups []float64
	c := cfg.corpus
	n := timedSetups
	if cfg.traced || cfg.corpus != nil {
		n = 1 // setup_s is not a traced run's to report
	}
	for i := 0; i < n; i++ {
		if plain != nil {
			plain.close(ctx)
			plain = nil
		}
		t0 := time.Now()
		var err error
		if cfg.corpus == nil {
			if c, err = buildCorpus(corpusApps()); err != nil {
				return nil, err
			}
		}
		if plain, err = newInstance(ctx, cfg, name, c, nil); err != nil {
			return nil, err
		}
		// Round 0 is the warm-up; its state creation is the last
		// part of set-up.
		rd, err := plain.w.newRound(ctx, 0)
		if err != nil {
			return nil, err
		}
		rd.close(ctx)
		setups = append(setups, time.Since(t0).Seconds())
	}
	if cfg.traced {
		if c.refs == nil {
			if err := c.adaptReferences(ctx); err != nil { // the probes need them
				return nil, err
			}
		}
		tr = newTracer()
		var err error
		if traced, err = newInstance(ctx, cfg, name, c, tr); err != nil {
			return nil, err
		}
	}

	if cfg.afterSetup != nil {
		cfg.afterSetup(c)
	}

	instances := []*instance{plain}
	if traced != nil {
		instances = append(instances, traced)
	}
	for _, in := range instances { // warm-up: verified, not measured
		if cfg.corpus != nil {
			break
		}
		w, err := runRound(ctx, in, 0)
		if err != nil {
			return nil, err
		}
		res.Attempted += len(w.latencies)
		res.Failed += failedOps(w.fails)
		res.Failures = append(res.Failures, w.fails...)
	}
	if tr != nil {
		tr.reset()
	}

	rounds := cfg.rounds
	if rounds <= 0 {
		rounds = measuredRounds(name, cfg.seconds)
		if cfg.traced {
			rounds = max(3, rounds/4)
		}
	}
	var tp, tt tally // plain, traced
	for k := 1; k <= rounds; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Which instance goes first alternates, so neither always
		// runs on the caches the other just warmed.
		pair := instances
		if len(pair) == 2 && k%2 == 0 {
			pair = []*instance{traced, plain}
		}
		var wp, wt window
		for _, in := range pair {
			w, err := runRound(ctx, in, k)
			if err != nil {
				return nil, err
			}
			if in == plain {
				wp = w
			} else {
				wt = w
			}
		}
		tp.add(wp)
		if traced != nil {
			wt.fails = append(wt.fails, compareDigests(wp.digests, wt.digests)...)
			tt.add(wt)
		}
	}

	res.Rounds = len(tp.rounds) + len(tt.rounds)
	res.RoundMs = tp.rounds
	res.RoundCPU = tp.cpu
	res.ImageMs = tp.byImage
	res.Attempted += len(tp.latencies) + len(tt.latencies)
	res.Failed += tp.failedOps + tt.failedOps
	res.Failures = append(append(res.Failures, tp.fails...), tt.fails...)
	res.EndToEnd = tp.endToEnd(len(c.images), median(setups))
	if traced != nil {
		ops := float64(len(tt.latencies))
		res.OpMs = tt.elapsed() * 1e3 / ops
		pr, err := runProbes(ctx, c, traced)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		res.PerLayer = layerMetrics(tr.aggregate(), ops, pr)
		// The untraced ops of this run give the median op's latency and
		// the baseline of the tracing overhead: each traced op is set
		// against the plain op on the same image in the same round.
		res.PerLayer["op_p50_ms"] = median(tp.latencies)
		var slower []float64
		for name, plainMs := range tp.byImage {
			for k, ms := range plainMs {
				slower = append(slower, tt.byImage[name][k]/ms)
			}
		}
		res.PerLayer["trace.overhead_pct"] = 100 * (median(slower) - 1)
		if cfg.traceOut != "" {
			if err := tr.writeChrome(cfg.traceOut); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// compareDigests reports images whose plain and traced ops, run on
// the same inputs, disagree.
func compareDigests(plain, traced map[string]digest.Digest) []failure {
	var out []failure
	for name, d := range plain {
		if t, ok := traced[name]; ok && t != d {
			out = append(out, failure{name, "decomposed", fmt.Sprintf("decomposed op produced %s, façade op %s", t.Short(), d.Short())})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Image < out[j].Image })
	return out
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the q-th quantile of v by linear interpolation between
// order statistics; NaN for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
