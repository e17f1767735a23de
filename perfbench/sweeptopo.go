package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"time"

	"tireplay/internal/sweep"
	"tireplay/perfbench/measure"
)

// sweep-topo is the tisweep path: LU class S on 16 ranks, parsed once, over
// a 48-cell grid of topologies, collective algorithms, checkpointing and
// latency, with forking and per-cell metrics on a resident two-worker
// engine, then rendered as table, JSON and metrics JSON. Platform builds,
// routing, the fork planner and per-cell metrics do the work; decode is
// absent. The recorded NPB trace does not depend on the seed.
const (
	sweepWorkers = 2
	sweepTopos   = "fat-tree:4,torus:4x4,dragonfly:2x4x2"
	sweepColls   = "default;bcast=binomial;allReduce=ring;allReduce=rdb"
	sweepCkpts   = "none;0.5/0.05"
	sweepLats    = "1,4"
	sweepCells   = 48
	// sweepMetricsSHA is the SHA-256 of WriteMetricsJSON for the grid.
	sweepMetricsSHA = "d4920a611f111fd483a424f03597c6edc9556bebe85c751bde12354d41d2c38e"
)

type sweepTopo struct {
	traces *sweep.TraceSet
	grid   sweep.Grid
	engine *sweep.Engine

	// Traced-run accumulators.
	sweeps    int
	cells     []float64 // per-cell wall, ms
	busy      time.Duration
	idle      time.Duration
	forked    int
	prefix    int64
	actions   int64
	jsonBytes int64
}

func newSweepTopo(*env) (instance, error) {
	perRank, err := record("lu", "S", 16)
	if err != nil {
		return nil, err
	}
	var g sweep.Grid
	if g.Topo, err = sweep.ParseTopoList(sweepTopos); err != nil {
		return nil, err
	}
	if g.Coll, err = sweep.ParseCollList(sweepColls); err != nil {
		return nil, err
	}
	if g.Ckpt, err = sweep.ParseCkptList(sweepCkpts); err != nil {
		return nil, err
	}
	if g.LatencyScale, err = sweep.ParseFloatList(sweepLats); err != nil {
		return nil, err
	}
	if g.Size() != sweepCells {
		return nil, fmt.Errorf("sweep-topo: grid has %d cells, want %d", g.Size(), sweepCells)
	}
	return &sweepTopo{traces: sweep.TracesFromActions(perRank), grid: g, engine: sweep.NewEngine(sweepWorkers)}, nil
}

func (w *sweepTopo) close() { w.engine.Close() }

func (w *sweepTopo) measure(d time.Duration, tr *tracer) *tally {
	return batch(d, func() (work, error) {
		res, _, err := w.request(tr, true)
		if err != nil {
			return work{}, err
		}
		var acts int64
		for i := range res.Scenarios {
			acts += res.Scenarios[i].Actions
		}
		return work{actions: acts, scenarios: int64(len(res.Scenarios)), requests: 1}, nil
	})
}

// request runs the sweep and renders it, then checks the metrics JSON.
func (w *sweepTopo) request(tr *tracer, fork bool) (*sweep.Result, time.Duration, error) {
	rec := tr.recorder()
	req := rec.Begin("request", 0)
	defer rec.End(req)
	cfg := &sweep.Config{Grid: w.grid, Traces: w.traces, Workers: sweepWorkers, Metrics: true, Fork: fork}
	span := rec.Begin("sweep.run", req)
	start := time.Now()
	res, err := w.engine.Run(context.Background(), cfg)
	took := time.Since(start)
	rec.End(span)
	if err != nil {
		return nil, took, err
	}
	span = rec.Begin("metrics.render", req)
	var table, js, mjs bytes.Buffer
	res.RenderTable(&table)
	err = res.WriteJSON(&js)
	if err == nil {
		err = res.WriteMetricsJSON(&mjs)
	}
	rec.End(span)
	if err != nil {
		return nil, took, err
	}
	for i := range res.Scenarios {
		if e := res.Scenarios[i].Err; e != "" {
			return nil, took, fmt.Errorf("sweep-topo: cell %s: %s", res.Scenarios[i].Name, e)
		}
	}
	sum := sha256.Sum256(mjs.Bytes())
	if got := hex.EncodeToString(sum[:]); got != sweepMetricsSHA {
		return nil, took, fmt.Errorf("sweep-topo (fork %v): metrics JSON sha256 %s, want %s", fork, got, sweepMetricsSHA)
	}
	if tr != nil && fork {
		w.sweeps++
		w.jsonBytes += int64(mjs.Len())
		var busy time.Duration
		for i := range res.Scenarios {
			sc := &res.Scenarios[i]
			busy += sc.Wall
			w.cells = append(w.cells, float64(sc.Wall)/float64(time.Millisecond))
			w.actions += sc.Actions
			w.prefix += sc.PrefixActions
			if sc.Forked {
				w.forked++
			}
		}
		w.busy += busy
		w.idle += time.Duration(sweepWorkers)*took - busy
	}
	return res, took, nil
}

// layers reports the sweep layer; one more sweep with forking off measures
// what forking buys on this grid.
func (w *sweepTopo) layers(tr *tracer, vals map[string]float64) (*tally, error) {
	if w.sweeps == 0 {
		return nil, fmt.Errorf("sweep-topo: no traced sweep completed")
	}
	layers := measure.ByName(tr.rec.Spans())
	n := float64(w.sweeps)
	on := layers["sweep.run"].Time.Seconds() / n
	off := &tally{attempted: 1}
	if _, took, err := w.request(nil, false); err != nil {
		off.failed++
		fmt.Fprintln(os.Stderr, "perfbench: failed operation:", err)
	} else {
		vals["sweep.fork_speedup"] = took.Seconds() / on
	}
	sort.Float64s(w.cells)
	vals["sweep.run_s"] = on
	vals["sweep.cells"] = float64(len(w.cells)) / n
	vals["sweep.cell_busy_s"] = w.busy.Seconds() / n
	if p, ok := measure.Percentile(w.cells, 0.5); ok {
		vals["sweep.cell_p50_ms"] = p
	}
	vals["sweep.cell_max_ms"] = w.cells[len(w.cells)-1]
	vals["sweep.worker_busy_ratio"] = w.busy.Seconds() / (sweepWorkers * on * n)
	vals["sweep.idle_s"] = w.idle.Seconds() / n
	vals["sweep.forked_ratio"] = float64(w.forked) / float64(len(w.cells))
	vals["sweep.prefix_share"] = float64(w.prefix) / float64(w.actions)
	vals["metrics.render_s"] = layers["metrics.render"].Time.Seconds() / n
	vals["metrics.json_bytes"] = float64(w.jsonBytes) / n
	return off, nil
}
