// Package measure holds the benchmark's span recorder and the order
// statistics its reports use.
//
// A span is one call the benchmark made into a layer: a name, a start, an
// end and the span that caused it. Spans live in memory and are written out
// once, when the benchmark ends. A layer's self time is its span's duration
// minus the part of that interval its child spans cover, so nested layers
// are not counted twice.
package measure

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// SpanID names a recorded span; 0 is "no span" (a root's parent).
type SpanID int32

// Span is one recorded call into a layer.
type Span struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent"`
	Name   string `json:"name"`
	// Start and End are offsets from the recorder's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Total marks a span that sums many short calls made inside its parent
	// (every Source.Next of one replay, say) instead of timing one
	// interval. It covers End-Start of its parent without a position in
	// time, and Count is the number of calls it sums.
	Total bool  `json:"total,omitempty"`
	Count int64 `json:"count,omitempty"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder holds spans in memory. A nil *Recorder records nothing, so
// untraced code paths call it for free. It is safe for concurrent use.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts a recorder whose clock reads zero now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Begin opens a span under parent and returns its ID.
func (r *Recorder) Begin(name string, parent SpanID) SpanID {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := SpanID(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// End closes span id.
func (r *Recorder) End(id SpanID) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// AddTotal records a Total span under parent: d summed over count calls.
func (r *Recorder) AddTotal(name string, parent SpanID, d time.Duration, count int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	id := SpanID(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, End: d, Total: true, Count: count})
	r.mu.Unlock()
}

// Spans returns a copy of the spans recorded so far, in ID order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSON writes every span as one JSON array.
func (r *Recorder) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(r.Spans())
}

// SelfTimes returns each span's self time, indexed like spans: its duration
// minus the union of its interval children's intervals (clipped to its own)
// minus the durations of its Total children. Concurrent children that
// overlap are counted once. spans must be in ID order, as Spans returns
// them; a span still open counts as zero.
func SelfTimes(spans []Span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent-1] = append(kids[s.Parent-1], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		self[i] = s.Dur()
		var ivs [][2]time.Duration
		for _, k := range kids[i] {
			c := spans[k]
			switch {
			case c.End < c.Start:
			case c.Total:
				self[i] -= c.Dur()
			default:
				ivs = append(ivs, [2]time.Duration{max(c.Start, s.Start), min(c.End, s.End)})
			}
		}
		self[i] -= covered(ivs)
	}
	return self
}

// covered is the length of the union of the intervals.
func covered(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var sum time.Duration
	var cur [2]time.Duration
	open := false
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		switch {
		case !open:
			cur, open = iv, true
		case iv[0] <= cur[1]:
			cur[1] = max(cur[1], iv[1])
		default:
			sum += cur[1] - cur[0]
			cur = iv
		}
	}
	if open {
		sum += cur[1] - cur[0]
	}
	return sum
}

// Layer sums the spans of one name.
type Layer struct {
	Time time.Duration // summed durations
	Self time.Duration // summed self times
}

// ByName sums the recorded spans per name.
func ByName(spans []Span) map[string]Layer {
	self := SelfTimes(spans)
	out := make(map[string]Layer)
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		l := out[s.Name]
		l.Time += s.Dur()
		l.Self += self[i]
		out[s.Name] = l
	}
	return out
}

// MinBeyond is how many samples must lie above a reported percentile.
const MinBeyond = 10

// Percentile returns the nearest-rank q-quantile (0 < q < 1) of samples,
// which must be sorted ascending. ok is false unless at least MinBeyond
// samples lie above the rank it reports: a p99 needs 1000 samples, a p90
// 100, a median 20.
func Percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if n-rank < MinBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// Median is the middle of xs (the mean of the middle two for an even
// count); xs is not modified. It returns 0 for no samples.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
