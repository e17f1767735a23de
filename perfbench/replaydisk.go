package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"tireplay/internal/metrics"
	"tireplay/internal/platform"
	"tireplay/internal/replay"
	"tireplay/internal/simx"
	"tireplay/internal/trace"
	"tireplay/perfbench/measure"
)

// replay-disk is the tireplay path: NPB LU class A on 16 ranks, written to
// disk as text and as binary .tib, replayed from each encoding on
// bordereau:16 with a metrics sink and a timed-trace writer attached, then
// analysed and rendered. It is the one workload where trace decode and the
// sinks sit on the critical path. The recorded NPB trace does not depend on
// the seed.
const (
	diskRanks = 16
	// diskMakespan is the simulated time of every replay, text and .tib.
	diskMakespan = 10.03098780898274
	// diskTimedSHA is the SHA-256 of the timed trace every replay writes.
	diskTimedSHA = "d37526d1c3a9e22f242e0c7cc8a884331224306370c03c3cdc7d196857c8e30c"
)

type encoding struct {
	name  string
	paths []string
	bytes int64
}

type replayDisk struct {
	encs    [2]encoding // text, then tib
	actions int64

	// Traced-run accumulators.
	replay      replayLayer
	plat        platformLayer
	decode      [2]time.Duration
	decoded     [2]int64
	decodeBytes int64
	sinkTook    time.Duration
	sinkEvents  int64
	timedBytes  int64
	jsonBytes   int64
	requests    int
}

func newReplayDisk(e *env) (instance, error) {
	perRank, err := record("lu", "A", diskRanks)
	if err != nil {
		return nil, err
	}
	w := &replayDisk{encs: [2]encoding{{name: "text"}, {name: "tib"}}}
	dir := filepath.Join(e.dir, "replay-disk")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for r, acts := range perRank {
		w.actions += int64(len(acts))
		text := filepath.Join(dir, trace.ProcessFileName(r))
		if err := trace.WriteFile(text, acts); err != nil {
			return nil, err
		}
		tib := filepath.Join(dir, trace.BinaryFileName(r))
		if err := writeTib(tib, acts); err != nil {
			return nil, err
		}
		for i, p := range []string{text, tib} {
			n, err := fileSize(p)
			if err != nil {
				return nil, err
			}
			w.encs[i].paths = append(w.encs[i].paths, p)
			w.encs[i].bytes += n
		}
	}
	return w, nil
}

// writeTib writes acts to path in the binary encoding.
func writeTib(path string, acts []trace.Action) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.EncodeBinary(f, acts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (w *replayDisk) close() {}

func (w *replayDisk) measure(d time.Duration, tr *tracer) *tally {
	defer oneP()()
	return batch(d, func() (work, error) {
		for i := range w.encs {
			if err := w.request(i, tr); err != nil {
				return work{}, err
			}
		}
		return work{actions: 2 * w.actions, scenarios: 2, requests: 2}, nil
	})
}

// open returns one source per rank for encoding i, and their closers.
func (w *replayDisk) open(i int) ([]replay.Source, []io.Closer, error) {
	srcs := make([]replay.Source, diskRanks)
	var closers []io.Closer
	for r, p := range w.encs[i].paths {
		if i == 0 {
			f, err := os.Open(p)
			if err != nil {
				return nil, closers, err
			}
			closers = append(closers, f)
			srcs[r] = replay.ScannerSource(trace.NewScanner(f))
			continue
		}
		m, err := trace.OpenMapped(p)
		if err != nil {
			return nil, closers, err
		}
		closers = append(closers, m)
		cur, err := m.Cursor()
		if err != nil {
			return nil, closers, err
		}
		srcs[r] = cur
	}
	return srcs, closers, nil
}

// request is one tireplay invocation: build, replay from encoding i with
// the sinks attached, flush, analyse and render; then the output checks.
func (w *replayDisk) request(i int, tr *tracer) (err error) {
	rec := tr.recorder()
	req := rec.Begin("request", 0)
	defer rec.End(req)

	var b *platform.Build
	var depl *platform.Deployment
	build := func() (int, error) {
		if b, err = platform.BuildBordereauWithCores(diskRanks, 1); err != nil {
			return 0, err
		}
		depl, err = platform.RoundRobin(b.HostNames, diskRanks, 1)
		return len(b.HostNames), err
	}
	if err = w.plat.build(tr, req, build); err != nil {
		return err
	}

	srcs, closers, err := w.open(i)
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	if err != nil {
		return err
	}
	sink := replay.NewMetricsSink()
	h := sha256.New()
	cw := &countWriter{w: h}
	tw := replay.NewTimedTraceWriter(cw)
	var sinks simx.Tracer = replay.Tee{sink, tw}
	var res *replay.Result
	if tr == nil {
		res, err = replay.Run(b, depl, replay.Config{TimedTracer: sinks}, srcs)
		if err != nil {
			return err
		}
	} else {
		timed := wrapSources(srcs)
		tt := &timedTracer{tr: sinks}
		var span measure.SpanID
		res, span, err = w.replay.run(tr, req, b.Kernel, func() (*replay.Result, error) {
			return replay.Run(b, depl, replay.Config{TimedTracer: tt}, srcs)
		}, diskRanks)
		if err != nil {
			return err
		}
		took, calls := totalSources(timed)
		rec.AddTotal("trace.decode", span, took, calls)
		rec.AddTotal("sink.tracer", span, tt.took, tt.events)
		w.decode[i] += took
		w.decoded[i] += calls
		w.decodeBytes += w.encs[i].bytes
		w.sinkTook += tt.took
		w.sinkEvents += tt.events
		defer func() {
			w.timedBytes += cw.n
			w.requests++
		}()
	}

	span := rec.Begin("sink.flush", req)
	err = tw.Flush()
	rec.End(span)
	if err != nil {
		return err
	}
	span = rec.Begin("metrics.analyze", req)
	rep := metrics.AnalyzeSink(sink, metrics.Options{})
	rec.End(span)
	span = rec.Begin("metrics.render", req)
	var text, js bytes.Buffer
	rep.Render(&text)
	err = rep.WriteJSON(&js)
	rec.End(span)
	if err != nil {
		return err
	}
	if tr != nil {
		w.jsonBytes += int64(js.Len())
	}

	if res.SimulatedTime != diskMakespan {
		return fmt.Errorf("replay-disk %s: makespan %.17g, want %.17g", w.encs[i].name, res.SimulatedTime, diskMakespan)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != diskTimedSHA {
		return fmt.Errorf("replay-disk %s: timed trace sha256 %s, want %s", w.encs[i].name, got, diskTimedSHA)
	}
	if res.Actions != w.actions {
		return fmt.Errorf("replay-disk %s: %d actions, want %d", w.encs[i].name, res.Actions, w.actions)
	}
	return nil
}

func (w *replayDisk) layers(tr *tracer, vals map[string]float64) (*tally, error) {
	if w.requests == 0 {
		return nil, fmt.Errorf("replay-disk: no traced request completed")
	}
	layers := measure.ByName(tr.rec.Spans())
	n := float64(w.requests)
	vals["trace.decode_s"] = (w.decode[0] + w.decode[1]).Seconds() / n
	vals["trace.ns_per_action_text"] = perCall(w.decode[0], w.decoded[0])
	vals["trace.ns_per_action_tib"] = perCall(w.decode[1], w.decoded[1])
	vals["trace.actions"] = float64(w.decoded[0]+w.decoded[1]) / n
	vals["trace.bytes"] = float64(w.decodeBytes) / n
	w.plat.report(layers, vals, w.requests)
	w.replay.report(layers, vals)
	vals["sink.self_s"] = w.sinkTook.Seconds() / n
	vals["sink.events"] = float64(w.sinkEvents) / n
	vals["sink.ns_per_event"] = perCall(w.sinkTook, w.sinkEvents)
	vals["sink.timed_bytes"] = float64(w.timedBytes) / n
	vals["sink.flush_s"] = layers["sink.flush"].Time.Seconds() / n
	vals["metrics.analyze_s"] = layers["metrics.analyze"].Time.Seconds() / n
	vals["metrics.render_s"] = layers["metrics.render"].Time.Seconds() / n
	vals["metrics.json_bytes"] = float64(w.jsonBytes) / n
	return nil, nil
}
