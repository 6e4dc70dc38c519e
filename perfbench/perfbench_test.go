package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro"
)

// testEnv boots the benchmark's set-up once per test: the seed-42 world
// snapshot in a temporary directory.
func testEnv(t *testing.T) *env {
	t.Helper()
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(context.Background(), sp, t.TempDir(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

// TestTracedMatchesUntraced pins the traced annotate path to the Service
// path: the wrappers must forward the searcher's whole capability ladder
// and change nothing the program computes. Per-table Queries and Batches
// are fixed by the workload when tables run sequentially or without a
// shared cache; with a cache and parallel tables only the totals are.
func TestTracedMatchesUntraced(t *testing.T) {
	ctx := context.Background()
	e := testEnv(t)
	c, err := buildCorpus(e.world, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		parallelism int
		cached      bool
	}{
		{"p1-cached", 1, true},
		{"p2-uncached", 2, false},
		{"p2-cached", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []repro.Option{repro.WithParallelism(tc.parallelism)}
			if tc.cached {
				opts = append(opts, repro.WithSharedCache())
			}
			svc, err := e.boot(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := servicePass(ctx, svc, c)
			if err != nil {
				t.Fatal(err)
			}
			if tc.cached {
				svc.Lab().Cache.Reset()
			}
			tr := newTracer()
			traced, err := tracedPass(ctx, svc, tc.parallelism, c, tr)
			if err != nil {
				t.Fatal(err)
			}
			perTable := !tc.cached || tc.parallelism == 1
			batches := 0
			for i := range plain.tables {
				p, q := plain.tables[i], traced.tables[i]
				if !sameAnnotations(p.anns, q.anns) || !sameColTypes(p.colTypes, q.colTypes) {
					t.Fatalf("table %s: traced annotations differ", c.names[i])
				}
				if perTable && (p.queries != q.queries || p.batches != q.batches) {
					t.Fatalf("table %s: queries/batches %d/%d untraced, %d/%d traced", c.names[i], p.queries, p.batches, q.queries, q.batches)
				}
				batches += q.batches
			}
			pq, ph, pm := plain.totals()
			qq, qh, qm := traced.totals()
			if pq != qq || ph+pm != qh+qm {
				t.Fatalf("totals: %d queries %d lookups untraced, %d and %d traced", pq, ph+pm, qq, qh+qm)
			}
			if batches == 0 || tr.layers.searchBatches.Load() != int64(batches) {
				t.Fatalf("traced run made %d batch calls for %d recorded batches: the batch path was lost", tr.layers.searchBatches.Load(), batches)
			}
		})
	}
}

// TestTracedGeocodeMatchesService pins the traced geo stage to
// Service.Geocode on a table past the streaming threshold.
func TestTracedGeocodeMatchesService(t *testing.T) {
	ctx := context.Background()
	e := testEnv(t)
	tables, err := geoTables(e.world, 3, geocodeParams{Tables: 1, RowsMin: 4400, RowsMax: 4400})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := e.boot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r, err := svc.Geocode(ctx, &repro.GeocodeRequest{Table: tables[0]})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	got, err := tracedGeocode(ctx, svc, tables[0], tr)
	if err != nil {
		t.Fatal(err)
	}
	if want := geoOutOf(r); !got.same(want) {
		t.Fatalf("traced geocode differs: %d annotations, %d components; want %d, %d", len(got.anns), got.components, len(want.anns), want.components)
	}
	if tr.layers.gazCalls.Load() == 0 {
		t.Fatal("no gazetteer call was traced")
	}
}

func TestChildrenCovered(t *testing.T) {
	var c children
	for _, iv := range [][2]int64{{5, 10}, {0, 3}, {8, 12}, {20, 30}} {
		c.add(iv[0], iv[1])
	}
	// Within [2, 25]: [2,3] + [5,12] + [20,25] = 1 + 7 + 5.
	if got := c.covered(2, 25); got != 13 {
		t.Fatalf("covered = %d, want 13", got)
	}
	var none children
	if got := none.covered(0, 10); got != 0 {
		t.Fatalf("empty covered = %d", got)
	}
}

func TestSameServedMasksCacheState(t *testing.T) {
	ref := []byte(`{"annotations":[{"row":1,"col":1,"type":"Restaurant","score":0.8}],"stats":{"rows":1,"cols":2,"annotated":1,"queries":1,"batches":1},"cache":{"hits":0,"misses":1},"timing":{"total_ms":3.1}}`)
	hit := []byte(`{"annotations":[{"row":1,"col":1,"type":"Restaurant","score":0.8}],"stats":{"rows":1,"cols":2,"annotated":1,"queries":0,"batches":0},"cache":{"hits":1,"misses":0},"timing":{"total_ms":0.2}}`)
	if !sameServed(hit, ref, true) {
		t.Fatal("a cache hit must match the reference")
	}
	wrongScore := []byte(`{"annotations":[{"row":1,"col":1,"type":"Restaurant","score":0.7}],"stats":{"rows":1,"cols":2,"annotated":1,"queries":0,"batches":0},"cache":{"hits":1,"misses":0},"timing":{"total_ms":0.2}}`)
	if sameServed(wrongScore, ref, true) {
		t.Fatal("a different score must not match")
	}
	lostLookup := []byte(`{"annotations":[{"row":1,"col":1,"type":"Restaurant","score":0.8}],"stats":{"rows":1,"cols":2,"annotated":1,"queries":0,"batches":0},"cache":{"hits":0,"misses":0},"timing":{"total_ms":0.2}}`)
	if sameServed(lostLookup, ref, true) {
		t.Fatal("a response missing a cache lookup must not match")
	}
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json at the repository root
// in step with spec.json, which the benchmark runs from.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(sp.Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.json", len(bj.Workloads), len(sp.Workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != sp.Workloads[i].Name || w.Why != sp.Workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q, spec.json %q", i, w.Name, sp.Workloads[i].Name)
		}
	}
	sameMetrics := func(kind string, a, b []metricSpec) {
		if len(a) != len(b) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.json", kind, len(a), len(b))
		}
		for i := range a {
			if a[i].Name != b[i].Name || a[i].Unit != b[i].Unit || a[i].Better != b[i].Better ||
				(a[i].Bound == nil) != (b[i].Bound == nil) || (a[i].Bound != nil && *a[i].Bound != *b[i].Bound) {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, spec.json %+v", kind, i, a[i], b[i])
			}
		}
	}
	sameMetrics("end_to_end", bj.EndToEnd, sp.EndToEnd)
	sameMetrics("per_layer", bj.PerLayer, sp.PerLayer)
}
