package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tireplay/internal/serve"
	"tireplay/perfbench/measure"
)

// serve-mix is the tiserved path: serve.New's handler behind a loopback
// HTTP server holding LU class S on 8 ranks, driven by a closed loop of two
// clients, because tiserved's callers are scripts that wait for each reply.
// Every tenth request of a client is cold: a 4-cell grid no request asked
// before. The other nine are warm, drawn from an 8-body working set cached
// in set-up; half repeat the body byte for byte (the body layer of the
// result cache), half respell it (the canonical layer). The seed drives the
// draw, the respelling and the cold grid values.
const (
	serveRanks   = 8
	serveClients = 2
	serveWorkers = 2
	serveColdGap = 10 // one cold request in serveColdGap
	serveCells   = 4  // cells of every grid, warm or cold
	serveColdCol = "default;allReduce=ring"
	// The latency phase of the traced run stops once the cold p90 and the
	// warm p99 each have ten samples beyond them, or at serveLatencyCap.
	serveColdSamples = 100
	serveWarmSamples = 1000
	serveLatencyCap  = 60 * time.Second
)

// serveWorkingSet are the warm grids: lat pairs crossed with coll pairs.
var serveWorkingSet = func() (out [][2]string) {
	for _, lat := range [][2]float64{{1, 2}, {1, 4}, {2, 4}, {0.5, 1}} {
		for _, coll := range []string{"default;allReduce=ring", "bcast=binomial;allReduce=rdb"} {
			out = append(out, [2]string{fmt.Sprintf("%g,%g", lat[0], lat[1]), coll})
		}
	}
	return out
}()

type serveMix struct {
	seed   int64
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
	digest string
	bodies [][]byte // canonical body per working-set entry
	resps  [][]byte // the cold response to each

	mu   sync.Mutex
	lats map[string]bool // lat axes already asked, so cold grids stay cold
	uniq int64           // respelling counter

	loops              int // closed loops run, so each draws fresh streams
	coldDone, warmDone atomic.Int64

	// Traced-run accumulators.
	before, after serve.Stats
	tracedReqs    int
	respBytes     int64
}

func newServeMix(e *env) (instance, error) {
	perRank, err := record("lu", "S", serveRanks)
	if err != nil {
		return nil, err
	}
	texts := make([]string, len(perRank))
	for r, acts := range perRank {
		var b strings.Builder
		for _, a := range acts {
			b.WriteString(a.Format())
			b.WriteByte('\n')
		}
		texts[r] = b.String()
	}
	srv := serve.New(serve.Config{Workers: serveWorkers})
	w := &serveMix{seed: e.seed, srv: srv, hs: httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients}},
		lats:   map[string]bool{}}
	upload, err := json.Marshal(map[string]any{"traces": texts})
	if err != nil {
		w.close()
		return nil, err
	}
	status, _, body, err := w.post("/traces", upload)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("upload: status %d: %s", status, body)
	}
	var up struct{ Digest string }
	if err == nil {
		err = json.Unmarshal(body, &up)
	}
	if err != nil {
		w.close()
		return nil, err
	}
	w.digest = up.Digest
	for _, ws := range serveWorkingSet {
		w.lats[ws[0]] = true
		b := w.body(ws[0], ws[1])
		status, cache, resp, err := w.post("/sweeps", b)
		if err == nil && (status != http.StatusOK || cache != "miss") {
			err = fmt.Errorf("warming %s: status %d, cache %q", b, status, cache)
		}
		if err != nil {
			w.close()
			return nil, err
		}
		if _, err := checkRows(resp); err != nil {
			w.close()
			return nil, err
		}
		w.bodies = append(w.bodies, b)
		w.resps = append(w.resps, resp)
	}
	return w, nil
}

func (w *serveMix) close() {
	w.hs.Close()
	w.client.CloseIdleConnections()
	w.srv.Close()
}

// body is the canonical spelling of a sweep request.
func (w *serveMix) body(lat, coll string) []byte {
	return []byte(fmt.Sprintf(`{"trace":%q,"grid":{"lat":%q,"coll":%q}}`, w.digest, lat, coll))
}

// respell writes working-set entry i in another spelling: keys reordered,
// numbers rewritten ("1" as "1.0", "1e0", ...), and a run of whitespace
// that encodes a counter, so no respelling repeats a body byte for byte and
// every one reaches the canonical layer.
func (w *serveMix) respell(i int, rng *rand.Rand) []byte {
	ws := serveWorkingSet[i]
	var nums []string
	for _, f := range strings.Split(ws[0], ",") {
		v, _ := strconv.ParseFloat(f, 64)
		switch rng.Intn(4) {
		case 0:
			nums = append(nums, strconv.FormatFloat(v, 'f', 1, 64))
		case 1:
			nums = append(nums, strconv.FormatFloat(v, 'f', 3, 64))
		case 2:
			nums = append(nums, strconv.FormatFloat(v, 'e', -1, 64))
		default:
			nums = append(nums, f)
		}
	}
	lat := fmt.Sprintf(`"lat":%q`, strings.Join(nums, ","))
	coll := fmt.Sprintf(`"coll":%q`, ws[1])
	if rng.Intn(2) == 0 {
		lat, coll = coll, lat
	}
	grid := `"grid":{` + lat + "," + coll + "}"
	tr := fmt.Sprintf(`"trace":%q`, w.digest)
	var b strings.Builder
	if rng.Intn(2) == 0 {
		b.WriteString("{" + tr + ", " + grid + "}")
	} else {
		b.WriteString("{" + grid + ",\n" + tr + "}")
	}
	w.mu.Lock()
	w.uniq++
	u := w.uniq
	w.mu.Unlock()
	for ; u > 0; u /= 4 {
		b.WriteByte(" \t\n\r"[u%4])
	}
	return []byte(b.String())
}

// coldBody draws a lat axis no request has used.
func (w *serveMix) coldBody(rng *rand.Rand) []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		lat := fmt.Sprintf("%.6f,%.6f", 0.25+4*rng.Float64(), 0.25+4*rng.Float64())
		if !w.lats[lat] {
			w.lats[lat] = true
			return w.body(lat, serveColdCol)
		}
	}
}

// post sends one request and reads the whole reply.
func (w *serveMix) post(path string, body []byte) (status int, cache string, resp []byte, err error) {
	r, err := w.client.Post(w.hs.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, r.Header.Get("X-Cache"), resp, err
}

// checkRows checks a sweep response's rows and returns its replayed actions.
func checkRows(resp []byte) (int64, error) {
	var out struct {
		Scenarios []struct {
			Name          string  `json:"name"`
			SimulatedTime float64 `json:"simulated_time"`
			Actions       int64   `json:"actions"`
			Err           string  `json:"err"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return 0, err
	}
	if len(out.Scenarios) != serveCells {
		return 0, fmt.Errorf("%d rows, want %d", len(out.Scenarios), serveCells)
	}
	var acts int64
	for _, s := range out.Scenarios {
		if s.Err != "" || s.SimulatedTime <= 0 || s.Actions <= 0 {
			return 0, fmt.Errorf("row %s: err %q, time %g, actions %d", s.Name, s.Err, s.SimulatedTime, s.Actions)
		}
		acts += s.Actions
	}
	return acts, nil
}

// clientTally is one client's share of a measure call.
type clientTally struct {
	attempted, failed int
	cold, warm        []time.Duration
	actions           int64
	coldCells         int64
	respBytes         int64
	firstErr          error
}

// runClient runs closed-loop client c, drawing from rng, while more(k)
// holds for its k-th request.
func (w *serveMix) runClient(c int, rng *rand.Rand, more func(k int) bool, tr *tracer) *clientTally {
	rec := tr.recorder()
	ct := &clientTally{}
	for k := 0; more(k); k++ {
		cold := (k+c*serveColdGap/2)%serveColdGap == serveColdGap-1
		var body, want []byte
		name := "serve.warm"
		if cold {
			body, name = w.coldBody(rng), "serve.cold"
		} else {
			i := rng.Intn(len(serveWorkingSet))
			want = w.resps[i]
			if rng.Intn(2) == 0 {
				body = w.bodies[i]
			} else {
				body = w.respell(i, rng)
			}
		}
		ct.attempted++
		span := rec.Begin(name, 0)
		start := time.Now()
		status, cache, resp, err := w.post("/sweeps", body)
		took := time.Since(start)
		rec.End(span)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, resp)
		}
		if err == nil && cold {
			var acts int64
			if acts, err = checkRows(resp); err == nil && cache != "miss" {
				err = fmt.Errorf("cold request answered %q", cache)
			}
			ct.actions += acts
		}
		if err == nil && !cold && (cache != "hit" || !bytes.Equal(resp, want)) {
			err = fmt.Errorf("warm request %q: cache %q, same bytes as its cold answer: %v", body, cache, bytes.Equal(resp, want))
		}
		if err != nil {
			ct.failed++
			if ct.firstErr == nil {
				ct.firstErr = err
			}
			continue
		}
		ct.respBytes += int64(len(resp))
		if cold {
			ct.cold = append(ct.cold, took)
			ct.coldCells += serveCells
			w.coldDone.Add(1)
		} else {
			ct.warm = append(ct.warm, took)
			w.warmDone.Add(1)
		}
	}
	return ct
}

// loop runs the closed loop of serveClients clients while more holds for
// each client's next request, and reduces it to a tally.
func (w *serveMix) loop(more func(k int) bool, tr *tracer) (t *tally, cold, warm []time.Duration, respBytes int64) {
	w.coldDone.Store(0)
	w.warmDone.Store(0)
	w.loops++
	start := time.Now()
	cts := make([]*clientTally, serveClients)
	var wg sync.WaitGroup
	for c := range cts {
		rng := rand.New(rand.NewSource(w.seed*7919 + int64(w.loops*serveClients+c)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			cts[c] = w.runClient(c, rng, more, tr)
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	t = &tally{}
	var actions, cells int64
	for _, ct := range cts {
		t.attempted += ct.attempted
		t.failed += ct.failed
		cold = append(cold, ct.cold...)
		warm = append(warm, ct.warm...)
		actions += ct.actions
		cells += ct.coldCells
		respBytes += ct.respBytes
		if ct.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: failed operation:", ct.firstErr)
		}
	}
	done := len(cold) + len(warm)
	t.actionsPerS = float64(actions) / wall
	t.scenariosPerS = float64(cells) / wall
	t.requestsPerS = float64(done) / wall
	t.requests = done
	for _, l := range append(cold, warm...) {
		t.requestTime += l
	}
	t.report = append(t.report, fmt.Sprintf("requests: %d attempted, %d failed, %d cold, %d warm over %.3fs",
		t.attempted, t.failed, len(cold), len(warm), wall))
	coldMs, warmMs := sortedMillis(cold), sortedMillis(warm)
	for _, p := range []struct {
		name string
		xs   []float64
		q    float64
	}{{"cold p50", coldMs, 0.5}, {"cold p90", coldMs, 0.9}, {"warm p50", warmMs, 0.5}, {"warm p99", warmMs, 0.99}} {
		if v, ok := measure.Percentile(p.xs, p.q); ok {
			t.report = append(t.report, fmt.Sprintf("%s: %.3f ms of %d samples", p.name, v, len(p.xs)))
		} else {
			t.report = append(t.report, fmt.Sprintf("%s: n/a, %d samples are too few", p.name, len(p.xs)))
		}
	}
	return t, cold, warm, respBytes
}

func (w *serveMix) measure(d time.Duration, tr *tracer) *tally {
	before := w.srv.Snapshot()
	debug.FreeOSMemory()
	rss := startRSSSampler()
	deadline := time.Now().Add(d)
	t, _, _, respBytes := w.loop(func(k int) bool { return k == 0 || time.Now().Before(deadline) }, tr)
	t.peakRSS = float64(rss.stop())
	if tr != nil {
		w.before, w.after = before, w.srv.Snapshot()
		w.tracedReqs += t.requests
		w.respBytes += respBytes
	}
	return t
}

// layers reports the serve layer. The latency percentiles come from one
// more untraced phase that runs until each has ten samples beyond it
// (serveLatencyCap at most).
func (w *serveMix) layers(tr *tracer, vals map[string]float64) (*tally, error) {
	b, a := w.before, w.after
	sweepReqs := float64((a.Cache.Hits + a.Cache.BodyHits + a.Cache.Misses) - (b.Cache.Hits + b.Cache.BodyHits + b.Cache.Misses))
	if sweepReqs <= 0 {
		return nil, fmt.Errorf("serve-mix: no traced request reached the cache")
	}
	vals["serve.body_hit_ratio"] = float64(a.Cache.BodyHits-b.Cache.BodyHits) / sweepReqs
	vals["serve.canonical_hit_ratio"] = float64(a.Cache.Hits-b.Cache.Hits) / sweepReqs
	vals["serve.miss_ratio"] = float64(a.Cache.Misses-b.Cache.Misses) / sweepReqs
	vals["serve.sweeps_run"] = float64(a.SweepsRun - b.SweepsRun)
	vals["serve.coalesced"] = float64(a.Coalesced - b.Coalesced)
	vals["serve.shed"] = float64(a.Queue.Shed - b.Queue.Shed)
	if pl := (a.Platforms.Hits + a.Platforms.Misses) - (b.Platforms.Hits + b.Platforms.Misses); pl > 0 {
		vals["serve.platform_hit_ratio"] = float64(a.Platforms.Hits-b.Platforms.Hits) / float64(pl)
	}
	if w.tracedReqs > 0 {
		vals["serve.response_bytes"] = float64(w.respBytes) / float64(w.tracedReqs)
	}
	capAt := time.Now().Add(serveLatencyCap)
	lat, cold, warm, _ := w.loop(func(int) bool {
		return time.Now().Before(capAt) && (w.coldDone.Load() < serveColdSamples || w.warmDone.Load() < serveWarmSamples)
	}, nil)
	coldMs, warmMs := sortedMillis(cold), sortedMillis(warm)
	vals["serve.cold_requests"] = float64(len(coldMs))
	vals["serve.warm_requests"] = float64(len(warmMs))
	if v, ok := measure.Percentile(coldMs, 0.5); ok {
		vals["serve.cold_p50_ms"] = v
	}
	if v, ok := measure.Percentile(coldMs, 0.9); ok {
		vals["serve.cold_p90_ms"] = v
	}
	if v, ok := measure.Percentile(warmMs, 0.5); ok {
		vals["serve.warm_p50_us"] = 1000 * v
	}
	if v, ok := measure.Percentile(warmMs, 0.99); ok {
		vals["serve.warm_p99_us"] = 1000 * v
	}

	// The same warm bodies straight into the handler, with no socket.
	h := w.srv.Handler()
	var direct []time.Duration
	for rep := 0; rep < 50; rep++ {
		for i, body := range w.bodies {
			rr := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/sweeps", bytes.NewReader(body))
			start := time.Now()
			h.ServeHTTP(rr, req)
			direct = append(direct, time.Since(start))
			lat.attempted++
			if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), w.resps[i]) {
				lat.failed++
				fmt.Fprintf(os.Stderr, "perfbench: failed operation: direct warm request %d: status %d, response differs\n", i, rr.Code)
			}
		}
	}
	if v, ok := measure.Percentile(sortedMillis(direct), 0.5); ok {
		vals["serve.handler_warm_us"] = 1000 * v
	}
	return lat, nil
}
