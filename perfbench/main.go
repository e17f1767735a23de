// Command perfbench is the repository's end-to-end benchmark. It drives one
// workload through the public entry points the command-line tools are built
// on (replay.Run, sweep.Engine.Run, serve.Server.Handler, synth.Gen),
// checks every output, and prints the metrics BENCHMARK.json lists: the
// end-to-end metrics with -trace 0, the per-layer metrics of a traced run
// with -trace 1. The last line of standard output is one JSON object;
// the lines before it are a readable report.
//
//	perfbench -workload replay-disk -seed 1 -seconds 10 -trace 0 -workdir DIR
//
// See README.md for the workloads and the meaning of every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"tireplay/internal/npb"
	"tireplay/internal/trace"
	"tireplay/perfbench/measure"
)

// A run builds its workload's inputs at least minSetups times, and more
// while they took under setupBudget in all (at most maxSetups): setup_s is
// the median, so one slow set-up does not move it, and a set-up of a few
// milliseconds gets enough samples to be steady.
const (
	minSetups   = 3
	maxSetups   = 100
	setupBudget = time.Second
)

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the tools sees, reported by every
// workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"actions_per_s", "1/s"},
	{"scenarios_per_s", "1/s"},
	{"requests_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of the traced run. A workload that does not
// reach a layer reports its metrics as 0.
var perLayer = []metricDef{
	{"trace.decode_s", "s"},
	{"trace.ns_per_action_text", "ns"},
	{"trace.ns_per_action_tib", "ns"},
	{"trace.actions", "count"},
	{"trace.bytes", "B"},
	{"platform.build_s", "s"},
	{"platform.hosts", "count"},
	{"platform.build_alloc_bytes", "B"},
	{"replay.run_s", "s"},
	{"replay.kernel_s", "s"},
	{"replay.spawn_s", "s"},
	{"replay.self_s", "s"},
	{"replay.ns_per_action", "ns"},
	{"replay.actions", "count"},
	{"replay.sim_s", "s"},
	{"replay.lazy_skips", "count"},
	{"replay.goroutines_peak", "count"},
	{"replay.stack_bytes_per_rank", "B"},
	{"replay.heap_bytes_per_rank", "B"},
	{"replay.alloc_bytes_per_rank", "B"},
	{"replay.gc_cycles", "count"},
	{"sink.self_s", "s"},
	{"sink.events", "count"},
	{"sink.ns_per_event", "ns"},
	{"sink.timed_bytes", "B"},
	{"sink.flush_s", "s"},
	{"metrics.analyze_s", "s"},
	{"metrics.render_s", "s"},
	{"metrics.json_bytes", "B"},
	{"sweep.run_s", "s"},
	{"sweep.cells", "count"},
	{"sweep.cell_busy_s", "s"},
	{"sweep.cell_p50_ms", "ms"},
	{"sweep.cell_max_ms", "ms"},
	{"sweep.worker_busy_ratio", "ratio"},
	{"sweep.idle_s", "s"},
	{"sweep.forked_ratio", "ratio"},
	{"sweep.prefix_share", "ratio"},
	{"sweep.fork_speedup", "x"},
	{"serve.body_hit_ratio", "ratio"},
	{"serve.canonical_hit_ratio", "ratio"},
	{"serve.miss_ratio", "ratio"},
	{"serve.sweeps_run", "count"},
	{"serve.coalesced", "count"},
	{"serve.shed", "count"},
	{"serve.platform_hit_ratio", "ratio"},
	{"serve.handler_warm_us", "us"},
	{"serve.response_bytes", "B"},
	{"serve.cold_requests", "count"},
	{"serve.cold_p50_ms", "ms"},
	{"serve.cold_p90_ms", "ms"},
	{"serve.warm_requests", "count"},
	{"serve.warm_p50_us", "us"},
	{"serve.warm_p99_us", "us"},
	{"synth.fit_s", "s"},
	{"synth.rank_setup_s", "s"},
	{"synth.gen_s", "s"},
	{"proc.cpu_s", "s"},
	{"proc.gc_cpu_fraction", "ratio"},
	{"bench.trace_overhead_s", "s"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// env is what a workload's set-up receives.
type env struct {
	seed int64
	dir  string // scratch directory, removed at exit
}

// workload builds a workload's inputs.
type workload func(e *env) (instance, error)

// instance is a set-up workload, ready to measure.
type instance interface {
	// measure runs the workload until d has passed, and for at least one
	// operation. tr is nil with tracing off.
	measure(d time.Duration, tr *tracer) *tally
	// layers adds the workload's per-layer metrics from a traced measure
	// call to vals. It may run extra passes (a fork-off sweep), whose
	// checked operations it returns, or nil.
	layers(tr *tracer, vals map[string]float64) (*tally, error)
	close()
}

// tally is the outcome of one measure call.
type tally struct {
	attempted, failed int
	// The three rates are already reduced over the call: a median of
	// per-operation rates, or a total over the wall time.
	actionsPerS, scenariosPerS, requestsPerS float64
	// requests and requestTime give the mean latency of one request, the
	// base of the tracing overhead.
	requests    int
	requestTime time.Duration
	// peakRSS is the peak resident set in bytes: the median over
	// operations of each one's peak, or the peak of a continuous loop.
	peakRSS float64
	report  []string
}

func (t *tally) meanRequest() float64 {
	if t.requests == 0 {
		return 0
	}
	return t.requestTime.Seconds() / float64(t.requests)
}

var workloads = map[string]workload{
	"replay-disk": newReplayDisk,
	"sweep-topo":  newSweepTopo,
	"serve-mix":   newServeMix,
	"synth-16k":   newSynth16k,
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: replay-disk, sweep-topo, serve-mix or synth-16k")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	workdir := flag.String("workdir", "", "scratch directory (created and removed)")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || *workdir == "" {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload NAME -seed N -seconds S -trace 0|1 -workdir DIR")
		os.Exit(2)
	}
	line, err := runIn(*workdir, w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runIn runs the workload with dir as its scratch directory, removed after.
func runIn(dir string, w workload, seed int64, d time.Duration, traced bool, name string) ([]byte, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res, err := run(w, &env{seed: seed, dir: dir}, d, traced, name)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// run sets the workload up, measures it and assembles the result.
func run(w workload, e *env, d time.Duration, traced bool, name string) (*result, error) {
	var inst instance
	var setupTimes []float64
	var setupTotal float64
	for len(setupTimes) < minSetups || (setupTotal < setupBudget.Seconds() && len(setupTimes) < maxSetups) {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w(e); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		took := time.Since(start).Seconds()
		setupTimes = append(setupTimes, took)
		setupTotal += took
	}
	defer inst.close()
	report := []string{fmt.Sprintf("set-up: %d runs, median %.4fs, min %.4fs, max %.4fs", len(setupTimes),
		measure.Median(setupTimes), slices.Min(setupTimes), slices.Max(setupTimes))}

	vals := map[string]float64{}
	var defs []metricDef
	var attempted, failed int
	if !traced {
		t := inst.measure(d, nil)
		attempted, failed = t.attempted, t.failed
		report = append(report, t.report...)
		defs = endToEnd
		vals["setup_s"] = measure.Median(setupTimes)
		vals["actions_per_s"] = t.actionsPerS
		vals["scenarios_per_s"] = t.scenariosPerS
		vals["requests_per_s"] = t.requestsPerS
		vals["peak_rss_mb"] = t.peakRSS / (1 << 20)
	} else {
		// One untimed operation first: a process's first operation ran up
		// to 25% slower than the next ones, more than the tracing costs,
		// and would otherwise count against the untraced half. Then the
		// first half runs untraced as the base of the overhead, the second
		// half traced.
		warm := inst.measure(0, nil)
		base := inst.measure(d/2, nil)
		tr := newTracer()
		t := inst.measure(d/2, tr)
		tr.stopProc()
		attempted = warm.attempted + base.attempted + t.attempted
		failed = warm.failed + base.failed + t.failed
		report = append(append(append(report, warm.report...), base.report...), t.report...)
		extra, err := inst.layers(tr, vals)
		if err != nil {
			return nil, err
		}
		if extra != nil {
			attempted += extra.attempted
			failed += extra.failed
			report = append(report, extra.report...)
		}
		tr.procLayers(vals, t.requests)
		if m := base.meanRequest(); m > 0 {
			over := t.meanRequest() - m
			vals["bench.trace_overhead_s"] = over
			vals["bench.trace_overhead_ratio"] = over / m
		}
		defs = perLayer
		if err := tr.dump(filepath.Join(filepath.Dir(e.dir), "spans-"+name+".json")); err != nil {
			return nil, err
		}
	}
	res := &result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metric, len(defs))}
	known := map[string]bool{}
	for _, def := range defs {
		v := vals[def.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", def.name, v)
		}
		known[def.name] = true
		res.Metrics[def.name] = metric{Value: v, Unit: def.unit}
	}
	for n := range vals {
		if !known[n] {
			return nil, fmt.Errorf("workload reported unlisted metric %s", n)
		}
	}
	for _, l := range report {
		fmt.Println(l)
	}
	for _, def := range defs {
		fmt.Printf("%-30s %16.6g %s\n", def.name, vals[def.name], def.unit)
	}
	return res, nil
}

// batch runs op until d has passed, at least once, and reduces the
// per-operation work to median rates. op returns the work one operation
// did; a non-nil error marks it failed. Each operation starts from a
// collected heap whose free pages went back to the OS, as a fresh tool
// invocation would, so its peak RSS is its own.
func batch(d time.Duration, op func() (work, error)) *tally {
	t := &tally{}
	var acts, scns, reqs, peaks []float64
	var took []string
	start := time.Now()
	var firstErr error
	for t.attempted == 0 || time.Since(start) < d {
		t.attempted++
		debug.FreeOSMemory()
		rss := startRSSSampler()
		opStart := time.Now()
		w, err := op()
		opTime := time.Since(opStart)
		peak := rss.stop()
		took = append(took, fmt.Sprintf("%.3fs", opTime.Seconds()))
		if err != nil {
			t.failed++
			if firstErr == nil {
				firstErr = err
				fmt.Fprintln(os.Stderr, "perfbench: failed operation:", err)
			}
			continue
		}
		s := opTime.Seconds()
		acts = append(acts, float64(w.actions)/s)
		scns = append(scns, float64(w.scenarios)/s)
		reqs = append(reqs, float64(w.requests)/s)
		peaks = append(peaks, float64(peak))
		t.requests += w.requests
		t.requestTime += opTime
	}
	t.actionsPerS = measure.Median(acts)
	t.scenariosPerS = measure.Median(scns)
	t.requestsPerS = measure.Median(reqs)
	t.peakRSS = measure.Median(peaks)
	t.report = append(t.report, fmt.Sprintf("operations: %d attempted, %d failed, took %s",
		t.attempted, t.failed, strings.Join(took, " ")))
	return t
}

// oneP sets GOMAXPROCS to 1 and returns the function that restores it.
// Recording an NPB trace in set-up, and the operations of replay-disk and
// synth-16k, run with one P: both are event loops handing control from
// rank goroutine to rank goroutine, and with a second, idle P each
// hand-off may wake another OS thread, whose wake-up time depends on how
// the host schedules the second vCPU. On a 2-vCPU guest that made the
// sweep-topo set-up (a recording) twice as slow with run medians 2x apart,
// and synth-16k operations 10-15% slower, and faster again while another
// process kept the second vCPU busy; with one P only the loop is measured.
// The operations of sweep-topo and serve-mix keep every P: their two
// workers and two clients run in parallel by design.
func oneP() (restore func()) {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

// record records an NPB application's per-rank traces, with one P.
func record(app, class string, ranks int) ([][]trace.Action, error) {
	defer oneP()()
	return npb.RecordAll(app, class, ranks)
}

// work is what one batch operation did.
type work struct {
	actions, scenarios int64
	requests           int
}

// sortedMillis converts durations to sorted float milliseconds.
func sortedMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
