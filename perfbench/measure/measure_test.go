package measure

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

const ms = time.Millisecond

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "request", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "platform.build", Start: 0, End: 10 * ms},
		{ID: 3, Parent: 1, Name: "replay.run", Start: 10 * ms, End: 90 * ms},
		{ID: 4, Parent: 3, Name: "trace.decode", End: 30 * ms, Total: true, Count: 1000},
		{ID: 5, Parent: 3, Name: "sink.tracer", End: 20 * ms, Total: true, Count: 500},
	}
	want := []time.Duration{10 * ms, 10 * ms, 30 * ms, 30 * ms, 20 * ms}
	for i, got := range SelfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d %s: self %v, want %v", i+1, spans[i].Name, got, want[i])
		}
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	// Two concurrent children overlap on [30,50); a third child pokes
	// out of the parent and is clipped to it.
	spans := []Span{
		{ID: 1, Name: "sweep.run", Start: 10 * ms, End: 110 * ms},
		{ID: 2, Parent: 1, Name: "cell", Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 1, Name: "cell", Start: 30 * ms, End: 60 * ms},
		{ID: 4, Parent: 1, Name: "cell", Start: 100 * ms, End: 130 * ms},
	}
	// Covered: [10,60) + [100,110) = 60ms of 100ms.
	if got := SelfTimes(spans)[0]; got != 40*ms {
		t.Fatalf("self %v, want 40ms", got)
	}
}

func TestSelfTimeSkipsOpenSpans(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "request", Start: 0, End: 50 * ms},
		{ID: 2, Parent: 1, Name: "open", Start: 10 * ms, End: -1},
	}
	self := SelfTimes(spans)
	if self[0] != 50*ms || self[1] != 0 {
		t.Fatalf("self %v, want [50ms 0]", self)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := NewRecorder()
	root := r.Begin("request", 0)
	child := r.Begin("replay.run", root)
	r.AddTotal("trace.decode", child, 3*ms, 7)
	r.End(child)
	r.End(root)
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	if spans[1].Parent != root || spans[2].Parent != child {
		t.Fatalf("parents %d,%d; want %d,%d", spans[1].Parent, spans[2].Parent, root, child)
	}
	if spans[0].Start > spans[1].Start || spans[1].End > spans[0].End {
		t.Fatalf("child %v..%v outside parent %v..%v", spans[1].Start, spans[1].End, spans[0].Start, spans[0].End)
	}
	layers := ByName(spans)
	if l := layers["trace.decode"]; l.Time != 3*ms || l.Self != 3*ms {
		t.Fatalf("trace.decode %+v, want 3ms", l)
	}
	if spans[2].Count != 7 {
		t.Fatalf("trace.decode counts %d calls, want 7", spans[2].Count)
	}
	if l := layers["replay.run"]; l.Self != l.Time-3*ms {
		t.Fatalf("replay.run self %v, want %v", l.Self, l.Time-3*ms)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back []Span
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil || len(back) != 3 {
		t.Fatalf("round trip: %v, %d spans", err, len(back))
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	id := r.Begin("x", 0)
	r.AddTotal("y", id, ms, 1)
	r.End(id)
	if id != 0 || r.Spans() != nil {
		t.Fatalf("nil recorder recorded %d / %v", id, r.Spans())
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{100, 0.90, 90, true},
		{99, 0.90, 0, false},
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		got, ok := Percentile(seq(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("n=%d q=%v: got %v,%v want %v,%v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	xs := []float64{4, 1, 3, 2}
	if m := Median(xs); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if xs[0] != 4 {
		t.Error("Median reordered its input")
	}
	if Median(nil) != 0 {
		t.Error("empty median not 0")
	}
}
