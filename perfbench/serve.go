package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/load"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/world"
)

// serveReq is one planned request: its body and endpoint.
type serveReq struct {
	body    []byte
	geocode bool
}

// planServe draws n requests from the seed: about geocode_share of them
// small geocode tables and the rest small annotate tables, their cell
// values Zipf-popular over the restaurant pool, except an unseen_share of
// tables whose names were never sent before. Bodies come from load.Body.
func planServe(w *world.World, seed int64, p serveParams, n int) ([]serveReq, error) {
	ents := w.TableEntities(world.Restaurant)
	blocks := len(ents) / p.AnnotateRows
	if blocks < 2 {
		return nil, fmt.Errorf("too few restaurant entities (%d)", len(ents))
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, p.ZipfS, 1, uint64(blocks-1))
	seen := map[[2]int][]byte{}
	out := make([]serveReq, n)
	for i := range out {
		geo := rng.Float64() < p.GeocodeShare
		rows := p.AnnotateRows
		if geo {
			rows = p.GeocodeRows
		}
		if rng.Float64() < p.UnseenShare {
			// A request index past every popular block, with distinct
			// names: a value no earlier request carried.
			body, err := load.Body(w, ents, blocks+i, rows, true, geo)
			if err != nil {
				return nil, err
			}
			out[i] = serveReq{body: body, geocode: geo}
			continue
		}
		idx := int(zipf.Uint64())
		key := [2]int{idx, map[bool]int{false: 0, true: 1}[geo]}
		body, ok := seen[key]
		if !ok {
			var err error
			if body, err = load.Body(w, ents, idx, rows, false, geo); err != nil {
				return nil, err
			}
			seen[key] = body
		}
		out[i] = serveReq{body: body, geocode: geo}
	}
	return out, nil
}

// sent is one request's outcome as the load generator saw it.
type sent struct {
	req      int           // index into the plan
	latency  time.Duration // completion minus due time
	lateness time.Duration // how late the generator released it
	status   int
	body     []byte
	err      error
}

// phaseResult is one fixed-rate phase of the open loop.
type phaseResult struct {
	rate    float64
	sent    []sent
	elapsed time.Duration // phase start to last completion
}

func (p *phaseResult) latenciesMs() []float64 {
	out := make([]float64, 0, len(p.sent))
	for _, s := range p.sent {
		out = append(out, ms(s.latency))
	}
	return out
}

// okRate is the phase's goodput: 200 responses per second from the phase
// start to its last completion.
func (p *phaseResult) okRate() float64 {
	ok := 0
	for _, s := range p.sent {
		if s.err == nil && s.status == http.StatusOK {
			ok++
		}
	}
	return float64(ok) / p.elapsed.Seconds()
}

// meets reports whether the phase kept its p99 within the limit with no
// failed request and no growing backlog: the median latency of its last
// tenth of requests also within the limit. (A backlog that grows for the
// whole phase delays most late requests; a host stall delays only a few.)
func (p *phaseResult) meets(limitMs float64) bool {
	for _, s := range p.sent {
		if s.err != nil || s.status != http.StatusOK {
			return false
		}
	}
	lat := p.latenciesMs()
	if quantile(lat, 990) > limitMs {
		return false
	}
	return median(lat[len(lat)-max(len(lat)/10, 1):]) <= limitMs
}

// openLoop is the benchmark's own open-loop load generator: it releases
// requests at fixed intervals into a queue, and conns senders, each with
// its own single connection, take them in order. Each request is timed from
// its due time, so a stall counts against every request queued behind it.
type openLoop struct {
	target  string
	plan    []serveReq
	clients []*http.Client
}

func newOpenLoop(target string, plan []serveReq, conns int) *openLoop {
	l := &openLoop{target: target, plan: plan}
	for i := 0; i < conns; i++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		l.clients = append(l.clients, &http.Client{Transport: tr})
	}
	return l
}

func (l *openLoop) close() {
	for _, c := range l.clients {
		c.CloseIdleConnections()
	}
}

// run sends plan[from:from+n] at rate requests per second.
func (l *openLoop) run(ctx context.Context, from, n int, rate float64) *phaseResult {
	res := &phaseResult{rate: rate, sent: make([]sent, n)}
	// One slot per request of the phase, so the generator never blocks on
	// a slow sender and its lateness measures only itself.
	queue := make(chan int, n)
	start := time.Now()
	var wg sync.WaitGroup
	var last atomic.Int64
	for _, c := range l.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queue {
				due := time.Duration(float64(k) / rate * float64(time.Second))
				s := &res.sent[k]
				s.status, s.body, s.err = l.post(ctx, c, l.plan[from+k])
				done := time.Since(start)
				s.latency = done - due
				for {
					cur := last.Load()
					if int64(done) <= cur || last.CompareAndSwap(cur, int64(done)) {
						break
					}
				}
			}
		}()
	}
	for k := 0; k < n; k++ {
		s := &res.sent[k]
		s.req = from + k
		due := time.Duration(float64(k) / rate * float64(time.Second))
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		s.lateness = time.Since(start) - due
		queue <- k
	}
	close(queue)
	wg.Wait()
	res.elapsed = time.Duration(last.Load())
	return res
}

func (l *openLoop) post(ctx context.Context, c *http.Client, r serveReq) (int, []byte, error) {
	path := "/v1/annotate"
	if r.geocode {
		path = "/v1/geocode"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.target+path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// listener is one handler served on a loopback port.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return l, nil
}

func (l *listener) close() {
	_ = l.srv.Close() // Close's only error is the listener's own close error
	<-l.done
}

// cluster is the router and its workers, all on loopback.
type cluster struct {
	workers   []*repro.Service
	listeners []*listener
	router    *server.Router
	edge      *listener
	tracer    atomic.Pointer[tracer]
	tracing   atomic.Bool
}

// bootCluster boots the workers from the snapshot with cmd/serve's worker
// defaults and the modelled search round trip, and fronts them with a
// router at cmd/serve's router defaults. With traced set, every handler is
// wrapped (recording only while tracing is on) and the router's proxy
// client stamps span ids on its attempts.
func bootCluster(ctx context.Context, e *env, p serveParams, traced bool) (*cluster, error) {
	c := &cluster{}
	var urls []string
	for i := 0; i < p.Workers; i++ {
		svc, err := e.boot(ctx, repro.WithParallelism(8), repro.WithGeoWorkers(0), repro.WithSharedCache())
		if err != nil {
			c.close()
			return nil, err
		}
		svc.Engine().Latency = time.Duration(p.RoundTripMs * float64(time.Millisecond))
		svc.Engine().RealSleep = true
		var h http.Handler = server.New(server.Config{Service: svc, MaxInFlight: 64, MaxCells: 100000, MaxBatch: 32}).Handler()
		if traced {
			h = &tracedHandler{next: h, tr: &c.tracer, name: "worker", enabled: &c.tracing}
		}
		l, err := listen(h)
		if err != nil {
			c.close()
			return nil, err
		}
		c.workers = append(c.workers, svc)
		c.listeners = append(c.listeners, l)
		urls = append(urls, l.url)
	}
	cfg := server.RouterConfig{
		Workers: urls, Replication: 2, MaxInFlight: 256, MaxBatch: 32,
		HedgeInitial: 100 * time.Millisecond, ProbeInterval: time.Second,
	}
	if traced {
		// The router's default client, with the span stamp in front.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 64
		cfg.Client = &http.Client{Transport: spanTransport{inner: tr}}
	}
	rt, err := server.NewRouter(cfg)
	if err != nil {
		c.close()
		return nil, err
	}
	c.router = rt
	var h http.Handler = rt.Handler()
	if traced {
		h = &tracedHandler{next: h, tr: &c.tracer, name: "router", enabled: &c.tracing}
	}
	if c.edge, err = listen(h); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) close() {
	if c.edge != nil {
		c.edge.close()
	}
	if c.router != nil {
		c.router.Close()
	}
	for _, l := range c.listeners {
		l.close()
	}
}

// resetCaches empties every worker's shared cache, as a fresh boot would.
func (c *cluster) resetCaches() {
	for _, w := range c.workers {
		w.Lab().Cache.Reset()
	}
}

// searchTotals sums the workers' search engine counters.
func (c *cluster) searchTotals() search.Stats {
	var t search.Stats
	for _, w := range c.workers {
		st := w.Engine().Stats()
		t.Queries += st.Queries
		t.Batches += st.Batches
		t.BatchedQueries += st.BatchedQueries
	}
	return t
}

// workerGeo sums the workers' /statz geo component counters and takes the
// largest component seen.
func (c *cluster) workerGeo() (components, largest int64, err error) {
	for _, l := range c.listeners {
		resp, err := http.Get(l.url + "/statz")
		if err != nil {
			return 0, 0, err
		}
		var st server.StatzJSON
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return 0, 0, err
		}
		if st.Geo != nil {
			components += st.Geo.Components
			largest = max(largest, st.Geo.LargestComponent)
		}
	}
	return components, largest, nil
}

// serveChecker compares served bodies with the single-process answer for
// the same body, from an in-process server over a latency-free service.
type serveChecker struct {
	ref  http.Handler
	memo map[string][]byte
}

func newServeChecker(ctx context.Context, e *env) (*serveChecker, error) {
	svc, err := e.boot(ctx, repro.WithParallelism(8), repro.WithSharedCache())
	if err != nil {
		return nil, err
	}
	return &serveChecker{ref: server.New(server.Config{Service: svc}).Handler(), memo: map[string][]byte{}}, nil
}

func (sc *serveChecker) reference(r serveReq) []byte {
	if b, ok := sc.memo[string(r.body)]; ok {
		return b
	}
	path := "/v1/annotate"
	if r.geocode {
		path = "/v1/geocode"
	}
	rec := httptest.NewRecorder()
	sc.ref.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(r.body)))
	b := rec.Body.Bytes()
	if rec.Code != http.StatusOK {
		b = nil
	}
	sc.memo[string(r.body)] = b
	return b
}

// failed counts the phase's requests that errored, were refused, or
// answered differently from the reference.
func (sc *serveChecker) failed(plan []serveReq, p *phaseResult) int {
	n := 0
	for _, s := range p.sent {
		if s.err != nil || s.status != http.StatusOK || !sameServed(s.body, sc.reference(plan[s.req]), !plan[s.req].geocode) {
			n++
		}
	}
	return n
}

// sameServed compares a served body with the reference with timing.total_ms
// masked. On annotate bodies the cache-state-dependent counters are masked
// too, after checking what must hold at any cache state: hits + misses
// equal the reference's (one lookup per unique cell query) and queries
// equal misses.
func sameServed(got, want []byte, annotate bool) bool {
	if want == nil {
		return false
	}
	var g, w map[string]any
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(want, &w) != nil {
		return false
	}
	for _, m := range []map[string]any{g, w} {
		delete(m, "timing")
	}
	if annotate {
		lookups := func(m map[string]any) (float64, float64, bool) {
			cache, ok1 := m["cache"].(map[string]any)
			stats, ok2 := m["stats"].(map[string]any)
			if !ok1 || !ok2 {
				return 0, 0, false
			}
			h, _ := cache["hits"].(float64)
			miss, _ := cache["misses"].(float64)
			q, _ := stats["queries"].(float64)
			return h + miss, q - miss, true
		}
		gl, gq, ok1 := lookups(g)
		wl, _, ok2 := lookups(w)
		if !ok1 || !ok2 || gl != wl || gq != 0 {
			return false
		}
		for _, m := range []map[string]any{g, w} {
			delete(m, "cache")
			stats := m["stats"].(map[string]any)
			delete(stats, "queries")
			delete(stats, "batches")
		}
	}
	return reflect.DeepEqual(g, w)
}

// runServe runs serve-zipf: the nominal-rate phase, then the rate ladder
// until a rung misses the limit.
func runServe(ctx context.Context, e *env, ws *workloadSpec, traced bool) (*outcome, error) {
	var prm serveParams
	if err := ws.params(&prm); err != nil {
		return nil, err
	}
	if len(prm.LadderRps) == 0 {
		return nil, errors.New("spec.json: serve-zipf needs a rate ladder")
	}
	o := newOutcome()
	nominalSecs := e.seconds * prm.NominalShare
	rungSecs := (e.seconds - nominalSecs) / float64(len(prm.LadderRps))
	if traced {
		nominalSecs, rungSecs = e.seconds/2, 0
	}
	sizes := []int{max(1, int(prm.NominalRps*nominalSecs))}
	for _, r := range prm.LadderRps {
		sizes = append(sizes, max(1, int(r*rungSecs)))
	}
	total := 0
	for _, n := range sizes {
		total += n
	}
	plan, err := planServe(e.world, e.seed, prm, total)
	if err != nil {
		return nil, err
	}
	rows := 0
	for _, r := range plan {
		if r.geocode {
			rows += prm.GeocodeRows
		} else {
			rows += prm.AnnotateRows
		}
	}
	o.input = map[string]int{"tables": total, "rows": rows, "cells": 2 * rows}

	cl, err := bootCluster(ctx, e, prm, traced)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	checker, err := newServeChecker(ctx, e)
	if err != nil {
		return nil, err
	}
	if err := e.finishSetup(ctx); err != nil {
		return nil, err
	}
	loop := newOpenLoop(cl.edge.url, plan, e.nproc)
	defer loop.close()

	if !traced {
		rss, cpu, steal := startRSS(), cpuSeconds(), startSteal()
		nominal := loop.run(ctx, 0, sizes[0], prm.NominalRps)
		phases := []*phaseResult{nominal}
		maxRps := nominal.okRate()
		if nominal.meets(prm.P99LimitMs) {
			from := sizes[0]
			for i, rate := range prm.LadderRps {
				p := loop.run(ctx, from, sizes[i+1], rate)
				from += sizes[i+1]
				phases = append(phases, p)
				if !p.meets(prm.P99LimitMs) {
					break
				}
				maxRps = p.okRate()
			}
		}
		cpu = cpuSeconds() - cpu
		// The open loop's latency is set by modelled round trips and
		// queueing at a fixed rate, not by CPU time, so it is reported
		// as measured; only the share is recorded.
		o.notes["steal_share"] = steal.share()
		o.notes["raw_setup_s"] = median(e.rawBoots)
		peak := rss.peakMB()
		rungs := []map[string]float64{}
		requests := 0
		for _, p := range phases {
			requests += len(p.sent)
			o.count(len(p.sent), checker.failed(plan, p))
			lat := p.latenciesMs()
			rungs = append(rungs, map[string]float64{"rate_rps": p.rate, "ok_rps": p.okRate(), "p50_ms": quantile(lat, 500), "p99_ms": quantile(lat, 990), "requests": float64(len(lat))})
		}
		lat := nominal.latenciesMs()
		o.e2e("throughput_per_s", maxRps)
		o.notes["cpu_ms_per_op"] = 1000 * cpu / float64(requests)
		o.e2e("latency_p50_ms", quantile(lat, 500))
		o.notes["tail_ms"] = quantile(lat, prm.TailPermille)
		o.e2e("peak_rss_mb", peak)
		o.e2e("setup_s", e.setupSeconds())
		o.notes["rungs"] = rungs
		o.notes["alias"] = "throughput_per_s = serve_max_rps, latency_p50_ms = serve_p50_ms, serve_p99_ms = rungs[0].p99_ms"
		return o, nil
	}

	// Traced run: the nominal phase untraced, then again from empty
	// caches with every handler recording spans.
	base := loop.run(ctx, 0, sizes[0], prm.NominalRps)
	o.count(len(base.sent), checker.failed(plan, base))
	cl.resetCaches()
	tr := newTracer()
	cl.tracer.Store(tr)
	eng0 := cl.searchTotals()
	comp0, _, err := cl.workerGeo()
	if err != nil {
		return nil, err
	}
	fired0, won0 := cl.router.HedgeCounters()
	rt := readRuntime()
	cl.tracing.Store(true)
	p := loop.run(ctx, 0, sizes[0], prm.NominalRps)
	cl.tracing.Store(false)
	gcFrac, allocPerOp := rt.elapsed().rates(len(p.sent))
	o.count(len(p.sent), checker.failed(plan, p))
	fired, won := cl.router.HedgeCounters()
	comp, largest, err := cl.workerGeo()
	if err != nil {
		return nil, err
	}
	eng := cl.searchTotals()
	eng.Queries -= eng0.Queries
	eng.Batches -= eng0.Batches
	eng.BatchedQueries -= eng0.BatchedQueries
	var hits, misses int64
	for _, w := range cl.workers {
		cs := w.Lab().Cache.Stats() // reset before the traced phase
		hits += cs.Hits
		misses += cs.Misses
	}
	workerMs, overheadMs := tr.routerSplit()
	var late []float64
	for _, s := range p.sent {
		late = append(late, ms(s.lateness))
	}
	o.tracer = tr
	// A batch call carries BatchedQueries of the queries; each other query
	// was its own call.
	o.layer("search.calls", float64(eng.Batches+eng.Queries-eng.BatchedQueries))
	o.layer("search.queries", float64(eng.Queries))
	o.layer("search.batches", float64(eng.Batches))
	o.layer("qcache.hit_ratio", ratio(int(hits), int(hits+misses)))
	o.layer("qcache.lookups", float64(hits+misses))
	o.layer("disambig.components", float64(comp-comp0))
	o.layer("disambig.largest_component", float64(largest))
	o.layer("worker.busy_ms", workerMs)
	o.layer("router.overhead_ms", overheadMs)
	o.layer("router.hedges_fired", float64(fired-fired0))
	o.layer("router.hedges_won", float64(won-won0))
	o.layer("server.shed", float64(tr.layers.shed.Load()))
	o.layer("runtime.gc_cpu_frac", gcFrac)
	o.layer("runtime.alloc_bytes_per_op", allocPerOp)
	o.layer("generator.lateness_p99_ms", quantile(late, 990))
	o.layer("trace.overhead_frac", median(p.latenciesMs())/median(base.latenciesMs())-1)
	return o, nil
}
