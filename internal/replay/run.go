package replay

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tireplay/internal/coll"
	"tireplay/internal/fifo"
	"tireplay/internal/platform"
	"tireplay/internal/simx"
	"tireplay/internal/smpi"
	"tireplay/internal/trace"
)

// Config parameterises a replay run.
type Config struct {
	// Model is the piece-wise linear MPI communication model applied to
	// point-to-point transfers; nil means smpi.Default().
	Model *smpi.Model
	// Registry binds action keywords to handlers; nil means Default().
	Registry *Registry
	// EagerThreshold is the message size (bytes) under which send actions
	// are buffered instead of synchronous. Zero means 64 KiB; negative
	// forces every send to be synchronous.
	EagerThreshold float64
	// TimedTracer, when non-nil, receives the timed trace of the simulated
	// execution (the secondary output of Figure 4).
	TimedTracer simx.Tracer
	// StringMailboxes switches the handlers back to formatting and hashing
	// a mailbox name on every rendezvous instead of the interned mailbox
	// IDs resolved at rank spawn time. This is the reference path kept for
	// the interning equivalence tests; both paths address the same
	// mailboxes and produce identical timed traces.
	StringMailboxes bool
	// Collectives selects the algorithm decomposing each collective action
	// into point-to-point schedules (see internal/coll). The zero value
	// replays every collective as the paper's linear star through rank 0;
	// coll.Auto selects per message size from the MPI model's segments.
	Collectives coll.Config
	// Faults is the availability profile injected into the run; nil replays
	// fault-free. Index clauses ("host:0") address the deployment's process
	// slots in order. Without Ckpt the recovery policy is abort: fail-stops
	// kill the affected ranks and Run returns a *FailedRanksError diagnosing
	// the lost work.
	Faults *platform.FaultSpec
	// Ckpt switches the recovery policy to coordinated checkpoint/restart:
	// the kernel simulates the fault-free schedule (degradation clauses
	// still injected), and the checkpoint overhead plus the rewind waste of
	// the spec's fail-stop clauses are applied analytically — exact because
	// the replay is deterministic. The Result carries the waste breakdown
	// in Resilience. Ckpt without Faults still pays the checkpoint writes.
	Ckpt *Ckpt
}

func (c *Config) setDefaults() {
	if c.Model == nil {
		c.Model = smpi.Default()
	}
	if c.Registry == nil {
		c.Registry = Default()
	}
	switch {
	case c.EagerThreshold == 0:
		c.EagerThreshold = 64 * 1024
	case c.EagerThreshold < 0:
		c.EagerThreshold = 0
	}
}

// Result reports the outcome of a replay.
type Result struct {
	// SimulatedTime is the predicted execution time of the application on
	// the target platform — the primary output of the framework.
	SimulatedTime float64
	// Actions is the number of trace actions executed.
	Actions int64
	// WallTime is the host time the simulation itself took (Figure 9).
	WallTime time.Duration
	// Resilience is the checkpoint/restart waste breakdown; non-nil exactly
	// when Config.Ckpt was set, in which case SimulatedTime is its
	// Effective makespan.
	Resilience *Resilience
}

// Proc is the per-rank replayer context handed to action handlers.
type Proc struct {
	// Sim is the simulation process executing this rank's actions.
	Sim *simx.Proc
	// Rank is the process id of the trace being replayed.
	Rank int
	// N is the world size from the deployment.
	N int

	cfg   *Config
	world *world

	// sendMb / recvMb cache the rank's interned point-to-point mailbox IDs
	// (this rank to peer, peer to this rank), resolved on first use; the
	// zero caches mark the string-keyed reference path. Sized by the peers
	// the rank actually talks to, not by the world (see mboxCache).
	sendMb mboxCache
	recvMb mboxCache

	// pending is the FIFO of outstanding Irecv requests; the queue reuses
	// its backing array, so wait-heavy traces do not grow it per round.
	pending fifo.Queue[*simx.Comm]
	collSeq int64

	// steps is the rank's reusable collective-schedule buffer; its capacity
	// stabilises after the first few collectives, keeping the collective
	// steady state allocation-free like the point-to-point one.
	steps []coll.Step
}

// reserveColl reserves the next `rounds` consecutive collective round
// numbers for one collective and returns the first. Every rank executes the
// same collective sequence with the same deterministic schedule shape (an
// MPI requirement), so all ranks reserve identical spans and meet in the
// same rounds.
func (p *Proc) reserveColl(rounds int) int64 {
	s := p.collSeq
	p.collSeq += int64(rounds)
	return s
}

// world is the replay state shared by every rank of one run. The kernel
// schedules at most one rank at a time, so no locking is needed.
type world struct {
	k               *simx.Kernel
	n               int
	stringMailboxes bool

	// Collective round window. rounds[head:] holds the live rounds in
	// sequence order, rounds[head] being round `base`: every rank executes
	// the same collective sequence, so rounds are created on demand in
	// round order and all ranks meet in the same anonymous mailboxes — the
	// IDs derive from the sequence counter, no name is formatted or hashed.
	// Once every rank has released a round (refs == 0) its mailboxes are
	// drained, so the whole struct — mailbox IDs included — moves to the
	// free list and a later round reuses it without touching the kernel:
	// the collective steady state allocates nothing and the window only
	// grows with the spread between the fastest and slowest rank.
	rounds []*collRound
	head   int
	base   int64
	free   []*collRound
}

// collRound holds the pair mailboxes of one collective round as a small
// open-addressing table keyed by src*n+dst: every schedule sends at most
// once per (round, src, dst), so a round uses at most n directed pairs and
// the table stays O(n) — a dense n-by-n slice would make the 2(n-1)
// simultaneously-live rounds of a ring allReduce cost O(n^3) memory. keys
// holds src*n+dst+1 (0 = empty slot); refs counts the ranks still executing
// the collective the round belongs to.
type collRound struct {
	refs int
	used int // occupied slots, live and stale
	keys []int64
	vals []simx.MailboxID
}

// round returns (creating rounds up to seq on demand) round seq's mailboxes.
func (w *world) round(seq int64) *collRound {
	for idx := int(seq - w.base); idx >= len(w.rounds)-w.head; {
		var r *collRound
		if n := len(w.free); n > 0 {
			r = w.free[n-1]
			w.free[n-1] = nil
			w.free = w.free[:n-1]
		} else {
			// Start small and let grow() right-size by the pairs the round
			// actually sees: dense rounds (a linear star's single round uses
			// ~n pairs) reach O(n) capacity through log n geometric regrows
			// on the first round ever, after which the free list recycles the
			// grown table; sparse rounds (tree and ring schedules move O(1)
			// pairs per rank and round) never pay for 2n slots up front.
			r = &collRound{keys: make([]int64, 64), vals: make([]simx.MailboxID, 64)}
		}
		r.refs = w.n
		w.rounds = append(w.rounds, r)
	}
	return w.rounds[w.head+int(seq-w.base)]
}

// pairMbox resolves the src-to-dst mailbox of a round, creating it on first
// use. Recycled rounds keep their tables: a stale entry from a previous
// occupant of the struct maps the same pair to a mailbox that was drained
// when that round retired, so reusing it is free — the steady state neither
// interns a mailbox nor allocates.
func (w *world) pairMbox(r *collRound, src, dst int) simx.MailboxID {
	key := int64(src)*int64(w.n) + int64(dst) + 1
	mask := len(r.keys) - 1
	// Fibonacci-style multiplicative hash spreads the dense pair keys.
	i := int(uint64(key)*0x9E3779B97F4A7C15>>32) & mask
	for {
		switch r.keys[i] {
		case key:
			return r.vals[i]
		case 0:
			// Keep occupancy (live + stale) at or below half so probe
			// chains stay short; growth is geometric and bounded by the
			// distinct pairs the recycled struct ever sees (<= n^2), so it
			// amortises away.
			if r.used >= (mask+1)/2 {
				r.grow()
				return w.pairMbox(r, src, dst)
			}
			id := w.k.NewMailbox()
			r.keys[i] = key
			r.vals[i] = id
			r.used++
			return id
		}
		i = (i + 1) & mask
	}
}

// grow doubles the table, keeping every entry (stale ones stay reusable).
func (r *collRound) grow() {
	oldKeys, oldVals := r.keys, r.vals
	r.keys = make([]int64, 2*len(oldKeys))
	r.vals = make([]simx.MailboxID, 2*len(oldVals))
	mask := len(r.keys) - 1
	for j, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := int(uint64(k)*0x9E3779B97F4A7C15>>32) & mask
		for r.keys[i] != 0 {
			i = (i + 1) & mask
		}
		r.keys[i] = k
		r.vals[i] = oldVals[j]
	}
}

// release marks this rank done with the `rounds` rounds starting at seq.
// Rounds retire in sequence order (a rank finishes collective k before
// k+1), so the window advances from the head; fully-released rounds go to
// the free list with their mailboxes.
func (w *world) release(seq int64, rounds int) {
	for s := seq; s < seq+int64(rounds); s++ {
		w.round(s).refs--
	}
	for w.head < len(w.rounds) && w.rounds[w.head].refs == 0 {
		w.free = append(w.free, w.rounds[w.head])
		w.rounds[w.head] = nil
		w.head++
		w.base++
	}
	// Compact the window once the dead prefix dominates, so a long trace
	// does not accumulate head slots.
	if w.head > 32 && w.head*2 >= len(w.rounds) {
		n := copy(w.rounds, w.rounds[w.head:])
		for i := n; i < len(w.rounds); i++ {
			w.rounds[i] = nil
		}
		w.rounds = w.rounds[:n]
		w.head = 0
	}
}

// Source yields the successive actions of one rank's trace. Implementations
// need not be safe for concurrent use; each rank owns its source.
type Source interface {
	// Next returns the next action, or ok=false at end of trace.
	Next() (a trace.Action, ok bool, err error)
}

// sliceSource iterates an in-memory action list.
type sliceSource struct {
	actions []trace.Action
	idx     int
}

func (s *sliceSource) Next() (trace.Action, bool, error) {
	if s.idx >= len(s.actions) {
		return trace.Action{}, false, nil
	}
	a := s.actions[s.idx]
	s.idx++
	return a, true, nil
}

// SliceSource wraps an action list as a Source.
func SliceSource(actions []trace.Action) Source {
	return &sliceSource{actions: actions}
}

// A mapped binary cursor streams records in place and is a Source as-is.
var _ Source = (*trace.BinaryCursor)(nil)

// scannerSource streams actions from a trace scanner.
type scannerSource struct{ sc *trace.Scanner }

func (s *scannerSource) Next() (trace.Action, bool, error) {
	if s.sc.Scan() {
		return s.sc.Action(), true, nil
	}
	return trace.Action{}, false, s.sc.Err()
}

// ScannerSource wraps a trace scanner as a Source, enabling the replay of
// traces too large to hold in memory.
func ScannerSource(sc *trace.Scanner) Source {
	return &scannerSource{sc: sc}
}

// run owns every piece of mutable state of one replay: the kernel (with its
// activity/comm pools and interning tables), the collective round table, the
// per-rank error slots and the action counter. Nothing in this struct — or
// reachable from it — is shared with any other run, which is what lets a
// sweep execute many runs concurrently over one read-only trace; the inputs
// a caller may share between concurrent runs (Registry, *smpi.Model, Source
// backing arrays, the parsed platform description) are all immutable during
// a run.
type run struct {
	cfg   Config
	world *world
	errs  []error

	// rankActions[r] counts the actions rank r completed; failed[r] records
	// the fail-stop that killed it. Plain slices: the kernel schedules one
	// rank at a time and k.Run establishes the happens-before with the
	// caller — which is also why the run needs no atomic total, the per-rank
	// counters sum up after k.Run returns.
	rankActions []int64
	failed      []*simx.FailedError
}

// newRun allocates the state of one replay of n ranks on kernel k; the
// communicator the handlers see spans exactly the n deployed processes.
func newRun(cfg Config, k *simx.Kernel, n int) *run {
	return &run{
		cfg:         cfg,
		world:       &world{k: k, n: n, stringMailboxes: cfg.StringMailboxes},
		errs:        make([]error, n),
		rankActions: make([]int64, n),
		failed:      make([]*simx.FailedError, n),
	}
}

// actions totals the per-rank action counters; call only after k.Run.
func (r *run) actions() int64 {
	var sum int64
	for _, n := range r.rankActions {
		sum += n
	}
	return sum
}

// Run replays one Source per rank on the platform: the engine of the whole
// framework. The deployment's i-th process entry maps rank i onto its host.
// The build's kernel is consumed by the run.
//
// Run is safe to call concurrently from multiple goroutines as long as each
// call gets its own Build (the kernel is mutated), its own Sources (cursors
// advance) and its own TimedTracer; Config values such as the Registry and
// the Model are only read.
func Run(b *platform.Build, depl *platform.Deployment, cfg Config, sources []Source) (*Result, error) {
	n := len(depl.Processes)
	if n == 0 {
		return nil, fmt.Errorf("replay: empty deployment")
	}
	if len(sources) != n {
		return nil, fmt.Errorf("replay: %d sources for %d deployed processes", len(sources), n)
	}
	cfg.setDefaults()
	k := b.Kernel
	k.SetRateModel(cfg.Model.RateModel())
	if cfg.TimedTracer != nil {
		k.SetTracer(cfg.TimedTracer)
	}

	if err := cfg.Ckpt.Validate(); err != nil {
		return nil, err
	}
	if cfg.Faults != nil || cfg.Ckpt != nil {
		// The availability profile's index clauses address the deployment's
		// process slots; folded deployments may name a host several times
		// (killing it once is idempotent).
		hosts := make([]string, n)
		for i, pd := range depl.Processes {
			hosts[i] = pd.Host
		}
		cfg.Faults.InjectDegradations(k)
		if cfg.Ckpt == nil {
			// Abort policy: fail-stops play out in the kernel and kill ranks.
			if err := cfg.Faults.InjectFailStops(k, hosts); err != nil {
				return nil, err
			}
		}
		// Under Ckpt the fail-stop clauses are consumed analytically after
		// the fault-free run (see applyCkpt).
	}

	r := newRun(cfg, k, n)
	for i, pd := range depl.Processes {
		host := k.Host(pd.Host)
		if host == nil {
			return nil, fmt.Errorf("replay: deployment host %q not in platform", pd.Host)
		}
		r.spawnRank(k, pd.Function, host, i, sources[i])
	}

	start := time.Now()
	makespan, runErr := k.Run()
	wall := time.Since(start)
	for _, err := range r.errs {
		if err != nil {
			return nil, err
		}
	}
	var lost []RankFailure // in rank order
	for rank, fe := range r.failed {
		if fe == nil {
			continue
		}
		lost = append(lost, RankFailure{Rank: rank, Host: depl.Processes[rank].Host,
			Actions: r.rankActions[rank], At: fe.Time, Cause: fe.Error()})
	}
	if len(lost) > 0 {
		// Survivors blocked on a rendezvous with a dead rank deadlock when
		// the queue drains; that is the expected shape of an aborted run,
		// not a stall.
		if _, deadlock := runErr.(*simx.DeadlockError); runErr != nil && !deadlock {
			return nil, fmt.Errorf("replay: simulation stalled: %w", runErr)
		}
		return nil, &FailedRanksError{Time: makespan, Ranks: lost}
	}
	if runErr != nil {
		return nil, fmt.Errorf("replay: simulation stalled: %w", runErr)
	}
	res := &Result{SimulatedTime: makespan, Actions: r.actions(), WallTime: wall}
	if cfg.Ckpt != nil {
		ra, err := applyCkpt(makespan, cfg.Ckpt, cfg.Faults.Arrivals(n))
		if err != nil {
			return nil, err
		}
		res.Resilience = ra
		res.SimulatedTime = ra.Effective
	}
	return res, nil
}

// spawnRank creates the kernel process replaying one rank's source; rank is
// both the deployment index and the MPI rank the trace names.
func (r *run) spawnRank(k *simx.Kernel, fn string, host *simx.Host, rank int, src Source) {
	// The rank-local caches intern the point-to-point mailbox IDs: the
	// first rendezvous with a peer resolves the name once, every later one
	// addresses the dense ID with no strconv or map hash; only pairs the
	// trace actually uses are interned.
	k.Spawn(fn, host, func(sp *simx.Proc) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if fe := simx.FailureOf(rec); fe != nil {
				// A fail-stop killed the rank (its own host, or a peer's
				// death propagated through a rendezvous): record the loss
				// and die quietly — Run diagnoses it after the simulation.
				r.failed[rank] = fe
				return
			}
			panic(rec)
		}()
		p := &Proc{Sim: sp, Rank: rank, N: r.world.n, cfg: &r.cfg, world: r.world}
		r.initMboxCaches(p)
		for {
			a, ok, err := src.Next()
			if err != nil {
				r.errs[rank] = fmt.Errorf("replay: p%d trace: %w", rank, err)
				return
			}
			if !ok {
				return
			}
			if a.Proc != rank {
				r.errs[rank] = fmt.Errorf("replay: p%d trace contains action of p%d", rank, a.Proc)
				return
			}
			h, err := r.cfg.Registry.Lookup(a.Type)
			if err != nil {
				r.errs[rank] = err
				return
			}
			if err := h(p, a); err != nil {
				r.errs[rank] = err
				return
			}
			r.rankActions[rank]++
		}
	})
}

// RunActions replays in-memory per-rank action lists.
func RunActions(b *platform.Build, depl *platform.Deployment, cfg Config, perRank [][]trace.Action) (*Result, error) {
	sources := make([]Source, len(perRank))
	for i, acts := range perRank {
		sources[i] = SliceSource(acts)
	}
	return Run(b, depl, cfg, sources)
}

// RunFiles replays the per-process trace files named by the deployment's
// process arguments — the configuration of Section 5 where
// MSG_action_trace_run receives no file name and each process entry carries
// its own trace file. Plain-text traces are streamed so traces larger than
// memory (the class D scale of Section 6.5) replay in constant space;
// gzip-compressed and binary traces are decoded up front.
func RunFiles(b *platform.Build, depl *platform.Deployment, cfg Config) (*Result, error) {
	sources := make([]Source, len(depl.Processes))
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	for i, pd := range depl.Processes {
		args := pd.Args()
		if len(args) == 0 {
			return nil, fmt.Errorf("replay: process %d (%s) has no trace file argument", i, pd.Function)
		}
		path := args[len(args)-1]
		src, closer, err := openSource(path)
		if err != nil {
			return nil, err
		}
		if closer != nil {
			closers = append(closers, closer)
		}
		sources[i] = src
	}
	return Run(b, depl, cfg, sources)
}

// openSource returns a streaming source for plain-text traces, a mapped
// in-place decoder for binary traces, and an in-memory list for compressed
// ones.
func openSource(path string) (Source, io.Closer, error) {
	if strings.HasSuffix(path, ".gz") {
		actions, err := trace.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		return SliceSource(actions), nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	// Binary traces are detected by magic and memory-mapped: the cursor
	// decodes records straight out of the page cache, so replay startup is
	// I/O-bound only (trace.OpenMapped falls back to an in-memory read on
	// platforms without mmap).
	head := make([]byte, 4)
	if n, _ := f.ReadAt(head, 0); n == 4 && string(head) == "TITB" {
		f.Close()
		m, err := trace.OpenMapped(path)
		if err != nil {
			return nil, nil, err
		}
		cur, err := m.Cursor()
		if err != nil {
			m.Close()
			return nil, nil, fmt.Errorf("trace: %s: %w", path, err)
		}
		return cur, m, nil
	}
	if _, err := f.Seek(0, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	return ScannerSource(trace.NewScanner(f)), f, nil
}
