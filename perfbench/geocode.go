package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro"
	"repro/internal/annotate"
	"repro/internal/gazetteer"
	"repro/internal/table"
	"repro/internal/world"
)

// geoTables builds the seeded geocode-huge inputs: Name/Address tables of
// point-of-interest entities, each long enough to cross the streaming
// threshold.
func geoTables(w *world.World, seed int64, p geocodeParams) ([]*table.Table, error) {
	var pool []*world.Entity
	for _, t := range world.POITypes {
		for _, e := range w.TableEntities(t) {
			if e.Street != gazetteer.NoLocation {
				pool = append(pool, e)
			}
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("world has no addressable entities")
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]*table.Table, p.Tables)
	for i := range out {
		t := table.New(fmt.Sprintf("geo-%d", i),
			table.Column{Header: "Name", Type: table.Text},
			table.Column{Header: "Address", Type: table.Location},
		)
		rows := p.RowsMin + rng.Intn(p.RowsMax-p.RowsMin+1)
		for r := 0; r < rows; r++ {
			e := pool[rng.Intn(len(pool))]
			if err := t.AppendRow(e.Name, e.Address(w.Gaz).Format()); err != nil {
				return nil, err
			}
		}
		out[i] = t
	}
	return out, nil
}

// geoOut is one geocoded table in the form the reference check compares.
type geoOut struct {
	anns                       []annotate.GeoAnnotation
	cells, resolved, ambiguous int
	components, largest        int
}

func geoOutOf(r *repro.GeocodeResponse) geoOut {
	return geoOut{
		anns: r.Annotations, cells: r.Stats.LocationCells, resolved: r.Stats.Resolved,
		ambiguous: r.Stats.Ambiguous, components: r.Stats.Components, largest: r.Stats.LargestComponent,
	}
}

// same compares everything but the scratch high-water mark, which depends
// on goroutine scheduling.
func (g geoOut) same(o geoOut) bool {
	if g.cells != o.cells || g.resolved != o.resolved || g.ambiguous != o.ambiguous ||
		g.components != o.components || g.largest != o.largest || len(g.anns) != len(o.anns) {
		return false
	}
	for i := range g.anns {
		if g.anns[i] != o.anns[i] {
			return false
		}
	}
	return true
}

// runGeocode runs geocode-huge: the seeded tables go one at a time through
// Service.Geocode, cycling until the time budget is spent, each checked
// against a GeoWorkers=1 reference.
func runGeocode(ctx context.Context, e *env, ws *workloadSpec, traced bool) (*outcome, error) {
	var prm geocodeParams
	if err := ws.params(&prm); err != nil {
		return nil, err
	}
	tables, err := geoTables(e.world, e.seed, prm)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	rows := 0
	for _, t := range tables {
		rows += t.NumRows()
	}
	o.input = map[string]int{"tables": len(tables), "rows": rows, "cells": 2 * rows}

	ref, err := geoReference(ctx, e, prm, tables)
	if err != nil {
		return nil, err
	}
	svc, err := e.boot(ctx)
	if err != nil {
		return nil, err
	}
	if err := e.finishSetup(ctx); err != nil {
		return nil, err
	}

	// measure cycles over the tables until the budget is spent (and at
	// least MinCycles ran); geocode is the per-table call.
	// Rates and latencies are unstolen (see annotate's measure), scaled by
	// the stolen share of each cycle; walls are plain.
	var rawRates, steals []float64
	measure := func(budget float64, geocode func(int) (geoOut, error)) (rates, walls, lat []float64, err error) {
		start := time.Now()
		for len(rates) < prm.MinCycles || time.Since(start).Seconds() < budget {
			cells := 0
			steal, cycle := startSteal(), time.Now()
			calls := make([]float64, 0, len(tables))
			for i := range tables {
				t0 := time.Now()
				g, err := geocode(i)
				d := time.Since(t0)
				if err != nil {
					return nil, nil, nil, err
				}
				calls = append(calls, ms(d))
				cells += g.cells
				o.attempted++
				if !g.same(ref[i]) {
					o.failed++
				}
			}
			wall, sh := time.Since(cycle).Seconds(), steal.share()
			for _, c := range calls {
				lat = append(lat, unstolen(c, sh))
			}
			rates = append(rates, float64(cells)/unstolen(wall, sh))
			rawRates = append(rawRates, float64(cells)/wall)
			steals = append(steals, sh)
			walls = append(walls, wall)
		}
		return rates, walls, lat, nil
	}
	untraced := func(i int) (geoOut, error) {
		r, err := svc.Geocode(ctx, &repro.GeocodeRequest{Table: tables[i]})
		if err != nil {
			return geoOut{}, err
		}
		return geoOutOf(r), nil
	}

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
		o.notes["cycles"] = len(rates)
		o.notes["steal_share"] = median(steals)
		o.notes["raw_throughput_per_s"] = median(rawRates)
		o.notes["raw_setup_s"] = median(e.rawBoots)
		o.notes["latency_samples"] = len(lat)
		o.notes["alias"] = "geocode_cells_per_s"
		return o, nil
	}

	_, baseWalls, _, err := measure(e.seconds/2, untraced)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var components, largest, calls int
	rt := readRuntime()
	_, walls, _, err := measure(e.seconds/2, func(i int) (geoOut, error) {
		g, err := tracedGeocode(ctx, svc, tables[i], tr)
		if err == nil {
			calls++
			components += g.components
			largest = max(largest, g.largest)
		}
		return g, err
	})
	if err != nil {
		return nil, err
	}
	cycles := float64(len(walls))
	gcFrac, allocPerOp := rt.elapsed().rates(calls)
	l := &tr.layers
	o.tracer = tr
	o.layer("gazetteer.calls", float64(l.gazCalls.Load())/cycles)
	o.layer("gazetteer.busy_s", secs(l.gazNs.Load())/cycles)
	o.layer("disambig.self_s", secs(l.disambigSelfNs.Load())/cycles)
	o.layer("disambig.components", float64(components)/cycles)
	o.layer("disambig.largest_component", float64(largest))
	o.layer("runtime.gc_cpu_frac", gcFrac)
	o.layer("runtime.alloc_bytes_per_op", allocPerOp)
	o.layer("trace.overhead_frac", median(walls)/median(baseWalls)-1)
	return o, nil
}

// tracedGeocode runs the geo stage Service.Geocode runs — the service's
// gazetteer at the default GeoWorkers — with the gazetteer wrapped, under a
// geo span whose self time is the disambiguation work.
func tracedGeocode(ctx context.Context, svc *repro.Service, t *table.Table, tr *tracer) (geoOut, error) {
	s := tr.open("geo", 0)
	kids := &children{}
	geo := &tracedGeo{inner: svc.Geo(), tr: tr, kids: kids}
	cfg := annotate.Config{Gazetteer: geo}
	anns, st, err := cfg.GeoAnnotateStats(ctx, t)
	geo.flush(s)
	tr.layers.disambigSelfNs.Add(tr.selfTime(s, kids))
	if err != nil {
		return geoOut{}, err
	}
	return geoOutOf(&repro.GeocodeResponse{Annotations: anns, Stats: geoStats(t, anns, st)}), nil
}

// geoReference geocodes every table on a service with GeoWorkers=1 and
// checks that each crosses the streaming threshold.
func geoReference(ctx context.Context, e *env, prm geocodeParams, tables []*table.Table) ([]geoOut, error) {
	svc, err := e.boot(ctx, repro.WithGeoWorkers(prm.RefGeoWorkers))
	if err != nil {
		return nil, err
	}
	ref := make([]geoOut, len(tables))
	for i, t := range tables {
		r, err := svc.Geocode(ctx, &repro.GeocodeRequest{Table: t})
		if err != nil {
			return nil, fmt.Errorf("reference geocode: %w", err)
		}
		if r.Stats.Resolved < prm.StreamThreshold {
			return nil, fmt.Errorf("table %s resolves %d cells, below the %d streaming threshold", t.Name, r.Stats.Resolved, prm.StreamThreshold)
		}
		ref[i] = geoOutOf(r)
	}
	return ref, nil
}

// geoStats derives a GeocodeResponse's statistics from the stage output,
// as Service.Geocode does: Location cells that are non-empty, resolved
// cells, and those with more than one candidate.
func geoStats(t *table.Table, anns []annotate.GeoAnnotation, st annotate.GeoStageStats) repro.GeoStats {
	out := repro.GeoStats{Resolved: len(anns), Components: st.Components, LargestComponent: st.LargestComponent}
	for _, j := range t.ColumnIndexesOfType(table.Location) {
		for i := 1; i <= t.NumRows(); i++ {
			if strings.TrimSpace(t.Cell(i, j)) != "" {
				out.LocationCells++
			}
		}
	}
	for _, a := range anns {
		if a.Candidates > 1 {
			out.Ambiguous++
		}
	}
	return out
}
