package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro"
	"repro/internal/annotate"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/table"
	"repro/internal/world"
)

// corpus is one run's annotate input: seeded GFT-shaped tables as CSV
// bytes, with the generator's gold labels keyed by table name.
type corpus struct {
	names []string
	csv   [][]byte
	gold  *dataset.Dataset
	rows  int
	cells int
}

// buildCorpus concatenates copies BuildGFT datasets of the world, each from
// its own seed drawn from the workload seed. Table names get a copy prefix
// so every table keeps its own gold.
func buildCorpus(w *world.World, seed int64, copies int) (*corpus, error) {
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{gold: &dataset.Dataset{Gold: dataset.Gold{}}}
	for i := 0; i < copies; i++ {
		ds := dataset.BuildGFT(w, rng.Int63())
		for _, t := range ds.Tables {
			var buf bytes.Buffer
			if err := table.WriteCSV(&buf, t); err != nil {
				return nil, err
			}
			name := fmt.Sprintf("c%d/%s", i, t.Name)
			c.names = append(c.names, name)
			c.csv = append(c.csv, buf.Bytes())
			c.gold.Gold[name] = ds.Gold[t.Name]
			c.rows += t.NumRows()
			c.cells += t.NumRows() * t.NumCols()
		}
	}
	return c, nil
}

func (c *corpus) parse(i int) (*table.Table, error) {
	return table.ReadCSV(bytes.NewReader(c.csv[i]), c.names[i])
}

// tableOut is one annotated table, from either the Service or the traced
// pipeline.
type tableOut struct {
	anns         []annotate.Annotation
	colTypes     map[int]string
	queries      int
	batches      int
	hits, misses int
	service      time.Duration
}

// passResult is one pass over the corpus.
type passResult struct {
	wall, parse time.Duration
	tables      []tableOut
}

func (p *passResult) totals() (queries, hits, misses int) {
	for _, t := range p.tables {
		queries += t.queries
		hits += t.hits
		misses += t.misses
	}
	return queries, hits, misses
}

// servicePass parses the corpus and annotates it with one
// Service.AnnotateBatch call.
func servicePass(ctx context.Context, svc *repro.Service, c *corpus) (*passResult, error) {
	start := time.Now()
	reqs := make([]*repro.AnnotateRequest, len(c.csv))
	for i := range c.csv {
		t, err := c.parse(i)
		if err != nil {
			return nil, err
		}
		reqs[i] = &repro.AnnotateRequest{Table: t}
	}
	parse := time.Since(start)
	resps, err := svc.AnnotateBatch(ctx, reqs)
	if err != nil {
		return nil, err
	}
	p := &passResult{wall: time.Since(start), parse: parse, tables: make([]tableOut, len(resps))}
	for i, r := range resps {
		p.tables[i] = tableOut{
			anns: r.Annotations, colTypes: r.ColumnTypes,
			queries: r.Stats.Queries, batches: r.Stats.Batches,
			hits: r.CacheStats.Hits, misses: r.CacheStats.Misses,
			service: r.Timing.Total,
		}
	}
	return p, nil
}

// pipelineConfig is the configuration a Service derives for its requests
// (repro.New with default request knobs), rebuilt from the service's public
// parts so the traced pass can swap in timing wrappers.
func pipelineConfig(svc *repro.Service, parallelism int) annotate.Config {
	return annotate.Config{
		Searcher:     svc.Engine(),
		Classifier:   svc.Classifier(svc.ClassifierName()),
		Types:        eval.TypeStrings(),
		Postprocess:  true,
		Disambiguate: true,
		Gazetteer:    svc.Geo(),
		Parallelism:  parallelism,
		Cache:        svc.Lab().Cache,
		CacheSalt:    svc.ClassifierName(),
	}
}

// tracedPass is servicePass with every layer call wrapped: the corpus is
// parsed the same way and the tables are annotated over the same worker
// pool shape Service.AnnotateBatch uses (parallelism workers across tables,
// parallelism within each).
func tracedPass(ctx context.Context, svc *repro.Service, parallelism int, c *corpus, tr *tracer) (*passResult, error) {
	base := pipelineConfig(svc, parallelism)
	start := time.Now()
	tables := make([]*table.Table, len(c.csv))
	for i := range c.csv {
		s := tr.open("table.parse", 0)
		t, err := c.parse(i)
		tr.layers.parseNs.Add(tr.closeSpan(s))
		if err != nil {
			return nil, err
		}
		tables[i] = t
	}
	p := &passResult{parse: time.Since(start), tables: make([]tableOut, len(tables))}
	errs := make([]error, len(tables))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(max(parallelism, 1), len(tables)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				p.tables[i], errs[i] = tracedTable(ctx, base, tables[i], tr)
			}
		}()
	}
	for i := range tables {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	p.wall = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// tracedTable annotates one table under an annotate span whose search,
// classify and gazetteer calls are recorded as its children.
func tracedTable(ctx context.Context, base annotate.Config, t *table.Table, tr *tracer) (tableOut, error) {
	start := time.Now()
	s := tr.open("annotate", 0)
	kids := &children{}
	clf := &tracedClassifier{inner: base.Classifier, tr: tr, kids: kids}
	geo := &tracedGeo{inner: base.Gazetteer, tr: tr, kids: kids}
	cfg := base
	cfg.Searcher = &tracedSearcher{inner: base.Searcher.(fullSearcher), tr: tr, parent: s.ID, kids: kids}
	cfg.Classifier = clf
	cfg.Gazetteer = geo
	res, err := cfg.Annotate(ctx, t)
	clf.flush(s)
	geo.flush(s)
	tr.layers.annotateSelfNs.Add(tr.selfTime(s, kids))
	if err != nil {
		return tableOut{}, err
	}
	return tableOut{
		anns: res.Annotations, colTypes: res.ColumnTypes(),
		queries: res.Queries, batches: res.Batches,
		hits: res.CacheHits, misses: res.CacheMisses,
		service: time.Since(start),
	}, nil
}

// annotateRef is the parallelism-1 reference every pass is checked against.
type annotateRef struct {
	c       *corpus
	tables  []tableOut
	queries int
	lookups int
	microF  float64
}

func newAnnotateRef(c *corpus, p *passResult) *annotateRef {
	q, h, m := p.totals()
	return &annotateRef{c: c, tables: p.tables, queries: q, lookups: h + m, microF: c.microF(p)}
}

// microF scores a pass against the generator's gold labels (micro-averaged
// F over all twelve types, §6.2).
func (c *corpus) microF(p *passResult) float64 {
	results := make(map[string]*annotate.Result, len(p.tables))
	for i, t := range p.tables {
		results[c.names[i]] = &annotate.Result{Annotations: t.anns}
	}
	return eval.MicroAverage(eval.ScoreDataset(c.gold, results), eval.TypeStrings()).F1()
}

// check returns how many of the pass's tables disagree with the reference.
// Annotations and column types are compared per table. Query totals are
// compared per pass, because with a shared cache which table records a miss
// varies under concurrency while the totals do not: a cold pass must issue
// exactly the reference's queries, a warm pass none, answering every lookup
// from the cache. Any pass-level mismatch fails every table of the pass.
func (r *annotateRef) check(p *passResult, warm bool) int {
	if len(p.tables) != len(r.tables) {
		return len(r.tables)
	}
	q, h, m := p.totals()
	totalsOK := q == r.queries && h+m == r.lookups
	if warm {
		totalsOK = q == 0 && h == r.lookups
	}
	if !totalsOK || r.c.microF(p) != r.microF {
		return len(r.tables)
	}
	failed := 0
	for i, t := range p.tables {
		if !sameAnnotations(t.anns, r.tables[i].anns) || !sameColTypes(t.colTypes, r.tables[i].colTypes) {
			failed++
		}
	}
	return failed
}

func sameAnnotations(a, b []annotate.Annotation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameColTypes(a, b map[int]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// runAnnotate runs one annotate-* workload: kind is "cold", "cold-p1" or
// "warm".
func runAnnotate(ctx context.Context, e *env, ws *workloadSpec, kind string, traced bool) (*outcome, error) {
	var prm annotateParams
	if err := ws.params(&prm); err != nil {
		return nil, err
	}
	c, err := buildCorpus(e.world, e.seed, prm.GFTCopies)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.input = map[string]int{"tables": len(c.csv), "rows": c.rows, "cells": c.cells}

	parallelism := e.nproc
	if kind == "cold-p1" {
		parallelism = 1
	}
	svc, err := e.boot(ctx, repro.WithParallelism(1), repro.WithSharedCache())
	if err != nil {
		return nil, err
	}
	refPass, err := servicePass(ctx, svc, c)
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	ref := newAnnotateRef(c, refPass)
	o.notes["micro_f"] = ref.microF
	o.notes["reference_queries"] = ref.queries
	if parallelism != 1 {
		if svc, err = e.boot(ctx, repro.WithParallelism(parallelism), repro.WithSharedCache()); err != nil {
			return nil, err
		}
	}
	warm := kind == "warm"
	if warm {
		svc.Lab().Cache.Reset()
		fill, err := servicePass(ctx, svc, c)
		if err != nil {
			return nil, fmt.Errorf("cache-filling pass: %w", err)
		}
		o.count(len(c.csv), ref.check(fill, false))
	}
	if err := e.finishSetup(ctx); err != nil {
		return nil, err
	}

	// measure runs passes until the time budget is spent (and at least
	// MinPasses ran), checking each against the reference. Rates and
	// latencies are unstolen: scaled by the share of CPU time the
	// hypervisor left this machine during the pass; walls are plain.
	var parseShare, rawRates, steals []float64
	measure := func(budget float64, pass func() (*passResult, error)) (rates, walls, lat []float64, err error) {
		start := time.Now()
		for len(rates) < prm.MinPasses || time.Since(start).Seconds() < budget {
			if !warm {
				svc.Lab().Cache.Reset()
			}
			steal := startSteal()
			p, err := pass()
			if err != nil {
				return nil, nil, nil, err
			}
			sh := steal.share()
			o.count(len(p.tables), ref.check(p, warm))
			rates = append(rates, float64(len(p.tables))/unstolen(p.wall.Seconds(), sh))
			rawRates = append(rawRates, float64(len(p.tables))/p.wall.Seconds())
			steals = append(steals, sh)
			walls = append(walls, p.wall.Seconds())
			parseShare = append(parseShare, p.parse.Seconds()/p.wall.Seconds())
			for _, t := range p.tables {
				lat = append(lat, unstolen(ms(t.service), sh))
			}
		}
		return rates, walls, lat, nil
	}
	untraced := func() (*passResult, error) { return servicePass(ctx, svc, c) }

	if !traced {
		rss, cpu := startRSS(), cpuSeconds()
		rates, _, lat, err := measure(e.seconds, untraced)
		cpu = cpuSeconds() - cpu
		peak := rss.peakMB()
		if err != nil {
			return nil, err
		}
		o.e2e("throughput_per_s", median(rates))
		o.notes["cpu_ms_per_op"] = 1000 * cpu / float64(len(lat))
		o.e2e("latency_p50_ms", quantile(lat, 500))
		o.notes["tail_ms"] = quantile(lat, prm.TailPermille)
		o.e2e("peak_rss_mb", peak)
		o.e2e("setup_s", e.setupSeconds())
		o.notes["passes"] = len(rates)
		o.notes["steal_share"] = median(steals)
		o.notes["raw_throughput_per_s"] = median(rawRates)
		o.notes["raw_setup_s"] = median(e.rawBoots)
		o.notes["parse_share"] = median(parseShare)
		o.notes["latency_samples"] = len(lat)
		o.notes["alias"] = map[string]string{"cold": "annotate_cold_tables_per_s", "cold-p1": "annotate_cold_p1_tables_per_s", "warm": "annotate_warm_tables_per_s"}[kind]
		return o, nil
	}

	// Traced run: an untraced baseline, then the same passes traced.
	_, baseWalls, _, err := measure(e.seconds/2, untraced)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var passes []*passResult
	var rt runtimeCounters // over the traced passes only, not the checks between them
	_, walls, _, err := measure(e.seconds/2, func() (*passResult, error) {
		r0 := readRuntime()
		p, err := tracedPass(ctx, svc, parallelism, c, tr)
		rt = rt.add(r0.elapsed())
		if err == nil {
			passes = append(passes, p)
		}
		return p, err
	})
	if err != nil {
		return nil, err
	}
	gcFrac, allocPerOp := rt.rates(len(passes) * len(c.csv))
	n := float64(len(passes))
	l := &tr.layers
	var hits, lookups int
	for _, p := range passes {
		_, h, m := p.totals()
		hits += h
		lookups += h + m
	}
	o.tracer = tr
	o.layer("table.parse_s", secs(l.parseNs.Load())/n)
	o.layer("search.calls", float64(l.searchCalls.Load())/n)
	o.layer("search.queries", float64(l.searchQueries.Load())/n)
	o.layer("search.batches", float64(l.searchBatches.Load())/n)
	o.layer("search.busy_s", secs(l.searchNs.Load())/n)
	o.layer("classify.calls", float64(l.classifyCalls.Load())/n)
	o.layer("classify.busy_s", secs(l.classifyNs.Load())/n)
	o.layer("annotate.self_s", secs(l.annotateSelfNs.Load())/n)
	o.layer("qcache.hit_ratio", ratio(hits, lookups))
	o.layer("qcache.lookups", float64(lookups)/n)
	o.layer("gazetteer.calls", float64(l.gazCalls.Load())/n)
	o.layer("gazetteer.busy_s", secs(l.gazNs.Load())/n)
	o.layer("runtime.gc_cpu_frac", gcFrac)
	o.layer("runtime.alloc_bytes_per_op", allocPerOp)
	o.layer("trace.overhead_frac", median(walls)/median(baseWalls)-1)
	return o, nil
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
