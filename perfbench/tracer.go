package main

import (
	"io"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tireplay/internal/replay"
	"tireplay/internal/simx"
	"tireplay/internal/trace"
	"tireplay/perfbench/measure"
)

// tracer is the state of a traced measure call: the span recorder plus the
// process counters read around it.
type tracer struct {
	rec   *measure.Recorder
	cpu0  float64
	rt0   rtSample
	cpu   float64 // process CPU seconds over the traced call
	gcCPU float64 // share of that spent in the garbage collector
}

func newTracer() *tracer {
	return &tracer{rec: measure.NewRecorder(), cpu0: processCPU(), rt0: readRuntime()}
}

// recorder is the span recorder, nil with tracing off.
func (t *tracer) recorder() *measure.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// stopProc closes the process counters of the traced call.
func (t *tracer) stopProc() {
	rt := readRuntime()
	t.cpu = processCPU() - t.cpu0
	if busy := (rt.totalCPU - rt.idleCPU) - (t.rt0.totalCPU - t.rt0.idleCPU); busy > 0 {
		t.gcCPU = (rt.gcCPU - t.rt0.gcCPU) / busy
	}
}

// procLayers reports the process counters per request.
func (t *tracer) procLayers(vals map[string]float64, requests int) {
	if requests > 0 {
		vals["proc.cpu_s"] = t.cpu / float64(requests)
	}
	vals["proc.gc_cpu_fraction"] = t.gcCPU
}

// dump writes the recorded spans to path.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// processCPU is the user plus system CPU time of the process so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// rtSample is one reading of the Go runtime's counters.
type rtSample struct {
	goroutines, stacks, heap, allocs, gcCycles uint64
	gcCPU, totalCPU, idleCPU                   float64
}

var rtNames = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/stacks:bytes",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	// heap is HeapInuse: object bytes plus the unused room in their spans.
	return rtSample{goroutines: u(0), stacks: u(1), heap: u(2) + u(3), allocs: u(4), gcCycles: u(5),
		gcCPU: f(6), totalCPU: f(7), idleCPU: f(8)}
}

// sampler polls a reading on a ticker until stopped and keeps the peak.
type sampler[T any] struct {
	stopc chan struct{}
	done  chan T
}

func startSampler[T any](every time.Duration, read func() T, keep func(peak *T, s T)) *sampler[T] {
	sm := &sampler[T]{stopc: make(chan struct{}), done: make(chan T, 1)}
	go func() {
		peak := read()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-sm.stopc:
				keep(&peak, read())
				sm.done <- peak
				return
			case <-tick.C:
				keep(&peak, read())
			}
		}
	}()
	return sm
}

// stop ends the sampler and returns its peak.
func (sm *sampler[T]) stop() T {
	close(sm.stopc)
	return <-sm.done
}

// startRSSSampler tracks the peak resident set size, in bytes.
func startRSSSampler() *sampler[int64] {
	page := int64(os.Getpagesize())
	return startSampler(10*time.Millisecond, func() int64 { return residentPages() * page },
		func(peak *int64, s int64) { *peak = max(*peak, s) })
}

// residentPages reads the process's resident page count.
func residentPages() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	n, _ := strconv.ParseInt(f[1], 10, 64)
	return n
}

// startRuntimeSampler tracks the peak goroutine count, stack and heap.
func startRuntimeSampler() *sampler[rtSample] {
	return startSampler(5*time.Millisecond, readRuntime, func(peak *rtSample, s rtSample) {
		peak.goroutines = max(peak.goroutines, s.goroutines)
		peak.stacks = max(peak.stacks, s.stacks)
		peak.heap = max(peak.heap, s.heap)
	})
}

// timedSource is the decorator timing Source.Next for the decode (or
// generation) layer.
type timedSource struct {
	src   replay.Source
	took  time.Duration
	calls int64
}

func (s *timedSource) Next() (trace.Action, bool, error) {
	t := time.Now()
	a, ok, err := s.src.Next()
	s.took += time.Since(t)
	if ok {
		s.calls++
	}
	return a, ok, err
}

// wrapSources decorates every source; total sums them after the run.
func wrapSources(srcs []replay.Source) []*timedSource {
	out := make([]*timedSource, len(srcs))
	for i, s := range srcs {
		out[i] = &timedSource{src: s}
		srcs[i] = out[i]
	}
	return out
}

func totalSources(ts []*timedSource) (took time.Duration, calls int64) {
	for _, s := range ts {
		took += s.took
		calls += s.calls
	}
	return took, calls
}

// timedTracer is the decorator timing simx.Tracer for the sink layer. The
// kernel calls its tracer from one rank at a time, so plain fields do.
type timedTracer struct {
	tr     simx.Tracer
	took   time.Duration
	events int64
}

func (t *timedTracer) Compute(proc, host string, flops, start, end float64) {
	s := time.Now()
	t.tr.Compute(proc, host, flops, start, end)
	t.took += time.Since(s)
	t.events++
}

func (t *timedTracer) Comm(src, dst string, bytes, start, end float64) {
	s := time.Now()
	t.tr.Comm(src, dst, bytes, start, end)
	t.took += time.Since(s)
	t.events++
}

// replayLayer accumulates the replay layer over traced requests.
type replayLayer struct {
	n                                  int
	kernel                             time.Duration
	actions                            int64
	sim                                float64
	lazySkips                          uint64
	goroutines, stackPR, heapPR, alloc float64
	gcCycles                           uint64
}

// run replays under span parent with the runtime sampled, and adds the
// request's replay-layer figures.
func (l *replayLayer) run(tr *tracer, parent measure.SpanID, k *simx.Kernel, call func() (*replay.Result, error), ranks int) (*replay.Result, measure.SpanID, error) {
	before := readRuntime()
	rs := startRuntimeSampler()
	span := tr.rec.Begin("replay.run", parent)
	res, err := call()
	tr.rec.End(span)
	peak := rs.stop()
	after := readRuntime()
	if err != nil {
		return nil, span, err
	}
	l.n++
	l.kernel += res.WallTime
	l.actions += res.Actions
	l.sim = res.SimulatedTime
	l.lazySkips += k.LazySkips()
	l.goroutines += float64(peak.goroutines)
	l.stackPR += float64(peak.stacks-min(peak.stacks, before.stacks)) / float64(ranks)
	l.heapPR += float64(peak.heap-min(peak.heap, before.heap)) / float64(ranks)
	l.alloc += float64(after.allocs-before.allocs) / float64(ranks)
	l.gcCycles += after.gcCycles - before.gcCycles
	return res, span, nil
}

// report adds the replay-layer metrics, per request, to vals; decode and
// sinks are the Total spans the caller recorded under replay.run.
func (l *replayLayer) report(layers map[string]measure.Layer, vals map[string]float64) {
	if l.n == 0 {
		return
	}
	n := float64(l.n)
	run := layers["replay.run"]
	vals["replay.run_s"] = run.Time.Seconds() / n
	vals["replay.kernel_s"] = l.kernel.Seconds() / n
	vals["replay.spawn_s"] = (run.Time - l.kernel).Seconds() / n
	vals["replay.self_s"] = run.Self.Seconds() / n
	vals["replay.ns_per_action"] = float64(run.Time.Nanoseconds()) / float64(l.actions)
	vals["replay.actions"] = float64(l.actions) / n
	vals["replay.sim_s"] = l.sim
	vals["replay.lazy_skips"] = float64(l.lazySkips) / n
	vals["replay.goroutines_peak"] = l.goroutines / n
	vals["replay.stack_bytes_per_rank"] = l.stackPR / n
	vals["replay.heap_bytes_per_rank"] = l.heapPR / n
	vals["replay.alloc_bytes_per_rank"] = l.alloc / n
	vals["replay.gc_cycles"] = float64(l.gcCycles) / n
}

// platformLayer accumulates platform builds.
type platformLayer struct {
	builds int
	hosts  int
	alloc  uint64
}

// build runs fn, which builds a platform and returns its host count; traced,
// it times fn under span parent.
func (p *platformLayer) build(tr *tracer, parent measure.SpanID, fn func() (int, error)) error {
	if tr == nil {
		_, err := fn()
		return err
	}
	before := readRuntime()
	span := tr.rec.Begin("platform.build", parent)
	hosts, err := fn()
	tr.rec.End(span)
	if err != nil {
		return err
	}
	p.builds++
	p.hosts = hosts
	p.alloc += readRuntime().allocs - before.allocs
	return nil
}

func (p *platformLayer) report(layers map[string]measure.Layer, vals map[string]float64, requests int) {
	if p.builds == 0 {
		return
	}
	vals["platform.build_s"] = layers["platform.build"].Time.Seconds() / float64(requests)
	vals["platform.hosts"] = float64(p.hosts)
	vals["platform.build_alloc_bytes"] = float64(p.alloc) / float64(p.builds)
}

// countWriter counts bytes on their way to w.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// fileSize is the size of path in bytes.
func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// perCall is the mean nanoseconds per call.
func perCall(d time.Duration, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(calls)
}
