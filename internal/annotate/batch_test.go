package annotate

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/qcache"
	"repro/internal/search"
	"repro/internal/table"
)

// blockingSearcher's round-trips only finish when the context does — the
// shape of an in-flight remote call a cancellation must be able to abandon.
type blockingSearcher struct{}

func (blockingSearcher) SearchBatchContext(ctx context.Context, _ []string, _ int) ([][]search.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// wideTable builds a one-column table with n distinct cell values.
func wideTable(t *testing.T, n int) *table.Table {
	t.Helper()
	tbl := table.New("wide", table.Column{Header: "Name", Type: table.Text})
	for i := 0; i < n; i++ {
		if err := tbl.AppendRow(fmt.Sprintf("Louvre Annex %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// batchScript returns a searcher answering every query of an n-row
// wideTable with museum snippets.
func batchScript(n int) *scriptedSearcher {
	s := &scriptedSearcher{results: map[string][]search.Result{}}
	for i := 0; i < n; i++ {
		s.results[fmt.Sprintf("Louvre Annex %d", i)] = snippets(10)
	}
	return s
}

// TestExecuteUsesBatchSearcher: the execute stage submits chunks — every
// query carried by a batch of at most maxSearchBatch, verdicts identical at
// any chunking, and the chunk count lands in Result.Batches.
func TestExecuteUsesBatchSearcher(t *testing.T) {
	const rows = 70
	s := batchScript(rows)
	cfg := Config{
		Searcher:   s,
		Classifier: constClassifier("museum"),
		Types:      []string{"museum", "restaurant"},
		K:          10,
	}
	res, err := cfg.Annotate(context.Background(), wideTable(t, rows))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.calls.Load(); got != rows {
		t.Errorf("batched queries = %d, want %d", got, rows)
	}
	wantChunks := (rows + maxSearchBatch - 1) / maxSearchBatch
	if got := s.batches.Load(); got != int64(wantChunks) {
		t.Errorf("batch calls = %d, want %d (sequential chunking)", got, wantChunks)
	}
	if res.Batches != wantChunks {
		t.Errorf("Result.Batches = %d, want %d", res.Batches, wantChunks)
	}
	if len(res.Annotations) != rows || res.Queries != rows {
		t.Errorf("annotations=%d queries=%d, want %d each", len(res.Annotations), res.Queries, rows)
	}

	// Single-query chunks (one worker per query) must produce the
	// identical annotation set.
	fine := cfg
	fine.Parallelism = rows
	res2, err := fine.Annotate(context.Background(), wideTable(t, rows))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Batches != rows {
		t.Errorf("parallelism %d: Result.Batches = %d, want %d single-query chunks", rows, res2.Batches, rows)
	}
	if fmt.Sprintf("%+v", res.Annotations) != fmt.Sprintf("%+v", res2.Annotations) {
		t.Error("coarse and single-query chunking produced different annotations")
	}
}

// TestBatchedExecuteParallelRace runs the batched execute path at
// parallelism >= 4 — without and with a shared cache, plus concurrent
// whole-table fan-out — and asserts outputs match the sequential run.
// Under -race this is the data-race check for the chunked worker pool,
// the batched cache lookups and the singleflight publication.
func TestBatchedExecuteParallelRace(t *testing.T) {
	const rows = 90
	tbl := wideTable(t, rows)
	base := Config{
		Searcher:   batchScript(rows),
		Classifier: constClassifier("museum"),
		Types:      []string{"museum", "restaurant"},
		K:          10,
	}
	seqRes, err := base.Annotate(context.Background(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	seq := fmt.Sprintf("%+v", seqRes.Annotations)

	for _, withCache := range []bool{false, true} {
		cfg := base
		cfg.Parallelism = 8
		if withCache {
			cfg.Cache = qcache.New()
		}
		var wg sync.WaitGroup
		results := make([]*Result, 6)
		errs := make([]error, 6)
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				results[g], errs[g] = cfg.Annotate(context.Background(), tbl)
			}(g)
		}
		wg.Wait()
		for g := range results {
			if errs[g] != nil {
				t.Fatalf("cache=%v goroutine %d: %v", withCache, g, errs[g])
			}
			if got := fmt.Sprintf("%+v", results[g].Annotations); got != seq {
				t.Errorf("cache=%v goroutine %d: annotations differ from sequential run", withCache, g)
			}
		}
		if withCache {
			// Singleflight across the six concurrent tables: one backend
			// query per unique cell value, total.
			st := cfg.Cache.Stats()
			if st.Misses != rows {
				t.Errorf("cache misses = %d, want %d (one per unique query)", st.Misses, rows)
			}
			totalQ := 0
			for _, r := range results {
				totalQ += r.Queries
			}
			if totalQ != rows {
				t.Errorf("total queries across tables = %d, want %d", totalQ, rows)
			}
		}
	}
}

// TestSearchAllAbandonsInFlight: on every execute path — with and without a
// shared cache — a cancellation aborts a search round-trip that is already
// in flight: the call returns promptly with ctx.Err() instead of waiting
// the backend out.
func TestSearchAllAbandonsInFlight(t *testing.T) {
	tbl := wideTable(t, 3)
	for _, withCache := range []bool{false, true} {
		cfg := Config{
			Searcher:   blockingSearcher{},
			Classifier: constClassifier("museum"),
			Types:      []string{"museum"},
			K:          10,
		}
		if withCache {
			cfg.Cache = qcache.New()
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := cfg.Annotate(ctx, tbl)
			done <- err
		}()
		cancel()
		if err := <-done; err == nil {
			t.Fatalf("cache=%v: cancelled in-flight search did not surface an error", withCache)
		}
	}
}
