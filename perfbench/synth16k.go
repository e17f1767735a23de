package main

import (
	"fmt"
	"time"

	"tireplay/internal/platform"
	"tireplay/internal/replay"
	"tireplay/internal/synth"
	"tireplay/internal/trace"
	"tireplay/perfbench/measure"
)

// synth-16k is the large-world path: a model fitted from LU class S at 16
// ranks, segment repeats truncated to one sweep as BenchmarkLargeWorldReplay
// does, regenerated at 16,384 ranks under the strong law and replayed on a
// 1,024-host dragonfly with no tracer. Many ranks with few actions each make
// per-rank state, goroutine stacks included, decide memory. Generation is
// deterministic (no jitter), so the seed does not change the inputs.
const (
	synthWorld = 16384
	synthTopo  = "dragonfly:8x16x8"
	// synthMakespan is the simulated time of every replay.
	synthMakespan = 13.813980846774232
)

type synth16k struct {
	gen  *synth.Gen
	topo platform.TopoSpec
	fit  time.Duration

	// Traced-run accumulators.
	replay   replayLayer
	plat     platformLayer
	requests int
}

func newSynth16k(*env) (instance, error) {
	perRank, err := record("lu", "S", 16)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	m, err := synth.Fit(perRank)
	if err != nil {
		return nil, err
	}
	fit := time.Since(start)
	for i := range m.Phases {
		if s := m.Phases[i].Seg; s != nil && s.Reps > 1 {
			s.Reps = 1
		}
	}
	g, err := synth.NewGen(m, synth.Spec{World: synthWorld, Law: synth.StrongLaw})
	if err != nil {
		return nil, err
	}
	topo, err := platform.ParseTopo(synthTopo)
	if err != nil {
		return nil, err
	}
	return &synth16k{gen: g, topo: topo, fit: fit}, nil
}

func (w *synth16k) close() {}

// rankGenSource adapts a synth cursor to replay.Source.
type rankGenSource struct{ rg *synth.RankGen }

func (s rankGenSource) Next() (trace.Action, bool, error) { return s.rg.Next() }

func (w *synth16k) measure(d time.Duration, tr *tracer) *tally {
	defer oneP()()
	return batch(d, func() (work, error) {
		acts, err := w.request(tr)
		return work{actions: acts, scenarios: 1, requests: 1}, err
	})
}

// request builds the platform, opens a generator cursor per rank and
// replays the world.
func (w *synth16k) request(tr *tracer) (int64, error) {
	rec := tr.recorder()
	req := rec.Begin("request", 0)
	defer rec.End(req)

	var b *platform.Build
	var depl *platform.Deployment
	build := func() (n int, err error) {
		if b, err = w.topo.Build(); err != nil {
			return 0, err
		}
		fold := (synthWorld + len(b.HostNames) - 1) / len(b.HostNames)
		depl, err = platform.RoundRobin(b.HostNames, synthWorld, fold)
		return len(b.HostNames), err
	}
	if err := w.plat.build(tr, req, build); err != nil {
		return 0, err
	}

	span := rec.Begin("synth.rank_setup", req)
	srcs := make([]replay.Source, synthWorld)
	for r := range srcs {
		rg, err := w.gen.Rank(r)
		if err != nil {
			rec.End(span)
			return 0, err
		}
		srcs[r] = rankGenSource{rg}
	}
	rec.End(span)

	var res *replay.Result
	var err error
	if tr == nil {
		res, err = replay.Run(b, depl, replay.Config{}, srcs)
	} else {
		timed := wrapSources(srcs)
		var rs measure.SpanID
		res, rs, err = w.replay.run(tr, req, b.Kernel, func() (*replay.Result, error) {
			return replay.Run(b, depl, replay.Config{}, srcs)
		}, synthWorld)
		took, calls := totalSources(timed)
		rec.AddTotal("synth.gen", rs, took, calls)
		w.requests++
	}
	if err != nil {
		return 0, err
	}
	if res.SimulatedTime != synthMakespan {
		return 0, fmt.Errorf("synth-16k: makespan %.17g, want %.17g", res.SimulatedTime, synthMakespan)
	}
	return res.Actions, nil
}

func (w *synth16k) layers(tr *tracer, vals map[string]float64) (*tally, error) {
	if w.requests == 0 {
		return nil, fmt.Errorf("synth-16k: no traced request completed")
	}
	layers := measure.ByName(tr.rec.Spans())
	n := float64(w.requests)
	w.plat.report(layers, vals, w.requests)
	w.replay.report(layers, vals)
	vals["synth.fit_s"] = w.fit.Seconds()
	vals["synth.rank_setup_s"] = layers["synth.rank_setup"].Time.Seconds() / n
	vals["synth.gen_s"] = layers["synth.gen"].Time.Seconds() / n
	return nil, nil
}
