package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classify"
	"repro/internal/gazetteer"
	"repro/internal/search"
	"repro/internal/textproc"
)

// The traced run wraps the calls into each layer's public functions — the
// search backend, the classifier, the gazetteer, the worker and router
// handlers — and records a span per call at the layer boundary. Spans live
// in memory, carry their parent's id, and are written out when the run ends.
// Nothing inside the program is instrumented.

// span is one recorded interval. Calls > 0 marks an aggregate span standing
// for that many calls of one layer made on behalf of its parent.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
}

// layerTotals accumulates the per-layer counters of the traced phase.
type layerTotals struct {
	parseNs                                             atomic.Int64
	searchCalls, searchQueries, searchBatches, searchNs atomic.Int64
	classifyCalls, classifyNs                           atomic.Int64
	annotateSelfNs                                      atomic.Int64
	gazCalls, gazNs                                     atomic.Int64
	disambigSelfNs                                      atomic.Int64
	shed                                                atomic.Int64
}

// tracer owns the spans of one traced phase.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
	layers layerTotals

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) newID() int64 { return t.nextID.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// open starts a span; close it with closeSpan.
func (t *tracer) open(name string, parent int64) span {
	return span{ID: t.newID(), Parent: parent, Name: name, Start: t.now()}
}

// closeSpan ends s, records it and returns its duration in ns.
func (t *tracer) closeSpan(s span) int64 {
	s.End = t.now()
	t.record(s)
	return s.End - s.Start
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// children collects the intervals of one span's child calls, which may run
// on several goroutines, so the span's self time can be computed as its
// duration minus the union of the child intervals.
type children struct {
	mu  sync.Mutex
	ivs [][2]int64
}

func (c *children) add(start, end int64) {
	c.mu.Lock()
	c.ivs = append(c.ivs, [2]int64{start, end})
	c.mu.Unlock()
}

// covered returns how much of [start, end] the union of the intervals
// covers.
func (c *children) covered(start, end int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.Slice(c.ivs, func(i, j int) bool { return c.ivs[i][0] < c.ivs[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range c.ivs {
		s, e := max(iv[0], start), min(iv[1], end)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	return total + curE - curS
}

// selfTime closes a parent span and returns its duration minus the part its
// children cover.
func (t *tracer) selfTime(s span, kids *children) int64 {
	d := t.closeSpan(s)
	return d - kids.covered(s.Start, s.Start+d)
}

// fullSearcher is the whole capability ladder the annotator probes for.
// A wrapper that forwarded only Search would silently switch annotate to
// its unbatched path.
type fullSearcher interface {
	Search(query string, k int) []search.Result
	SearchBatch(queries []string, k int) [][]search.Result
	SearchContext(ctx context.Context, query string, k int) ([]search.Result, error)
	SearchBatchContext(ctx context.Context, queries []string, k int) ([][]search.Result, error)
}

// tracedSearcher times every search call made on behalf of one parent span.
type tracedSearcher struct {
	inner  fullSearcher
	tr     *tracer
	parent int64
	kids   *children
}

func (s *tracedSearcher) done(start int64, queries int, batch bool) {
	end := s.tr.now()
	s.kids.add(start, end)
	l := &s.tr.layers
	l.searchCalls.Add(1)
	l.searchQueries.Add(int64(queries))
	if batch {
		l.searchBatches.Add(1)
	}
	l.searchNs.Add(end - start)
	s.tr.record(span{ID: s.tr.newID(), Parent: s.parent, Name: "search", Start: start, End: end, Calls: int64(queries)})
}

func (s *tracedSearcher) Search(query string, k int) []search.Result {
	start := s.tr.now()
	r := s.inner.Search(query, k)
	s.done(start, 1, false)
	return r
}

func (s *tracedSearcher) SearchBatch(queries []string, k int) [][]search.Result {
	start := s.tr.now()
	r := s.inner.SearchBatch(queries, k)
	s.done(start, len(queries), true)
	return r
}

func (s *tracedSearcher) SearchContext(ctx context.Context, query string, k int) ([]search.Result, error) {
	start := s.tr.now()
	r, err := s.inner.SearchContext(ctx, query, k)
	s.done(start, 1, false)
	return r, err
}

func (s *tracedSearcher) SearchBatchContext(ctx context.Context, queries []string, k int) ([][]search.Result, error) {
	start := s.tr.now()
	r, err := s.inner.SearchBatchContext(ctx, queries, k)
	s.done(start, len(queries), true)
	return r, err
}

// tracedClassifier times every Predict made on behalf of one parent span.
// Predict calls are far too many for a span each; they are kept as child
// intervals for the parent's self time and summarised in one aggregate span.
type tracedClassifier struct {
	inner classify.Classifier
	tr    *tracer
	kids  *children
	calls atomic.Int64
	busy  atomic.Int64
}

func (c *tracedClassifier) Predict(f textproc.Features) string {
	start := c.tr.now()
	label := c.inner.Predict(f)
	end := c.tr.now()
	c.kids.add(start, end)
	c.calls.Add(1)
	c.busy.Add(end - start)
	return label
}

// flush records the aggregate span and adds the totals to the layer
// counters.
func (c *tracedClassifier) flush(parent span) {
	n, busy := c.calls.Load(), c.busy.Load()
	if n == 0 {
		return
	}
	c.tr.layers.classifyCalls.Add(n)
	c.tr.layers.classifyNs.Add(busy)
	c.tr.record(span{ID: c.tr.newID(), Parent: parent.ID, Name: "classify", Start: parent.Start, End: c.tr.now(), Calls: n, Busy: busy})
}

// tracedGeo times the gazetteer's string-work calls (Geocode, Lookup,
// LookupAny, FullName) made on behalf of one parent span. The O(1)
// accessors are passed through untimed: a clock read costs more than they
// do, and their time stays in the caller's self time.
type tracedGeo struct {
	inner gazetteer.Geo
	tr    *tracer
	kids  *children
	calls atomic.Int64
	busy  atomic.Int64
}

func (g *tracedGeo) timed(start int64) {
	end := g.tr.now()
	g.kids.add(start, end)
	g.calls.Add(1)
	g.busy.Add(end - start)
}

func (g *tracedGeo) flush(parent span) {
	n, busy := g.calls.Load(), g.busy.Load()
	if n == 0 {
		return
	}
	g.tr.layers.gazCalls.Add(n)
	g.tr.layers.gazNs.Add(busy)
	g.tr.record(span{ID: g.tr.newID(), Parent: parent.ID, Name: "gazetteer", Start: parent.Start, End: g.tr.now(), Calls: n, Busy: busy})
}

func (g *tracedGeo) Len() int                                  { return g.inner.Len() }
func (g *tracedGeo) Name(id gazetteer.LocID) string            { return g.inner.Name(id) }
func (g *tracedGeo) Kind(id gazetteer.LocID) gazetteer.Kind    { return g.inner.Kind(id) }
func (g *tracedGeo) Parent(id gazetteer.LocID) gazetteer.LocID { return g.inner.Parent(id) }
func (g *tracedGeo) Containers(id gazetteer.LocID) []gazetteer.LocID {
	return g.inner.Containers(id)
}
func (g *tracedGeo) CityOf(id gazetteer.LocID) gazetteer.LocID { return g.inner.CityOf(id) }

func (g *tracedGeo) Lookup(name string, kind gazetteer.Kind) []gazetteer.LocID {
	start := g.tr.now()
	r := g.inner.Lookup(name, kind)
	g.timed(start)
	return r
}

func (g *tracedGeo) LookupAny(name string) []gazetteer.LocID {
	start := g.tr.now()
	r := g.inner.LookupAny(name)
	g.timed(start)
	return r
}

func (g *tracedGeo) FullName(id gazetteer.LocID) string {
	start := g.tr.now()
	r := g.inner.FullName(id)
	g.timed(start)
	return r
}

func (g *tracedGeo) Geocode(address string) []gazetteer.LocID {
	start := g.tr.now()
	r := g.inner.Geocode(address)
	g.timed(start)
	return r
}

// spanHeader carries a router span's id to the worker on every proxied
// attempt, hedges included, so worker spans link to their router span.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

// tracedHandler records one span per /v1/ request through a router or
// worker handler while enabled, and counts the 429s it writes.
type tracedHandler struct {
	next    http.Handler
	tr      *atomic.Pointer[tracer]
	name    string
	enabled *atomic.Bool
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if !h.enabled.Load() || tr == nil || !strings.HasPrefix(r.URL.Path, "/v1/") {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	s := tr.open(h.name, parent)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	h.next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), spanKey{}, s.ID)))
	tr.closeSpan(s)
	if sw.status == http.StatusTooManyRequests {
		tr.layers.shed.Add(1)
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// spanTransport stamps the router span id from the request context onto
// the proxied request.
type spanTransport struct{ inner http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return t.inner.RoundTrip(r)
}

// routerSplit derives, from the router and worker spans, the mean worker
// span per worker request and the mean router overhead per routed request:
// the router span minus its winning (first-finished) worker span.
func (t *tracer) routerSplit() (workerMs, overheadMs float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	winner := map[int64]span{}
	var workerNs int64
	var workers int
	for _, s := range t.spans {
		if s.Name != "worker" {
			continue
		}
		workerNs += s.End - s.Start
		workers++
		if w, ok := winner[s.Parent]; !ok || s.End < w.End {
			winner[s.Parent] = s
		}
	}
	var overNs int64
	var routed int
	for _, s := range t.spans {
		if s.Name != "router" {
			continue
		}
		if w, ok := winner[s.ID]; ok {
			overNs += (s.End - s.Start) - (w.End - w.Start)
			routed++
		}
	}
	if workers > 0 {
		workerMs = float64(workerNs) / float64(workers) / 1e6
	}
	if routed > 0 {
		overheadMs = float64(overNs) / float64(routed) / 1e6
	}
	return workerMs, overheadMs
}
