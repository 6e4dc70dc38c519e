package annotate

import (
	"context"
	"sync/atomic"

	"repro/internal/disambig"
	"repro/internal/gazetteer"
	"repro/internal/table"
)

// GeoAnnotation is one Location-column cell resolved against the gazetteer:
// the §5.2.2 geocode+disambiguate machinery surfaced as an output product
// rather than only as internal query augmentation.
type GeoAnnotation struct {
	Row, Col int // 1-based, the paper's T(i,j)
	// Location is the chosen interpretation rendered with its full
	// container chain, e.g. "Pennsylvania Avenue, Washington, D.C., USA".
	Location string
	// Kind is the hierarchy level of the chosen location ("street",
	// "city", "state", "country").
	Kind string
	// City is the containing city's bare name; empty when the location
	// sits above city level.
	City string
	// Candidates is the size of the cell's candidate set before
	// disambiguation; 1 means the cell was unambiguous.
	Candidates int
	// Score is the chosen interpretation's share of the cell's final
	// score distribution (1 for unambiguous cells; see disambig).
	Score float64
	// Loc is the chosen interpretation's gazetteer ID, for callers that
	// compare against a gold truth (the scenario matrix's geo accuracy).
	// Not part of the wire format — the serving layer maps fields
	// explicitly and omits it.
	Loc gazetteer.LocID
}

// GeoStageStats describes one geo-stage run: how many cells geocoded and
// how the disambiguation graph decomposed. Zero when the table had nothing
// to geocode.
type GeoStageStats struct {
	// Cells is the number of cells that geocoded to at least one
	// candidate (= the interpretations fed to disambiguation).
	Cells int
	// Components and LargestComponent describe the voting graph's
	// connected-component decomposition (see disambig.Stats). Both are
	// deterministic; the scheduling-dependent scratch high-water mark is
	// reported through Config.ScratchGauge instead.
	Components       int
	LargestComponent int
}

// ScratchGauge is a runtime high-water mark of the pooled per-component
// scratch, in bytes, that any one geo-stage resolve reporting to it held at
// once (disambig.Stats.PeakScratchBytes). Its value depends on goroutine
// scheduling, so it belongs on live metrics, never in a result that is
// compared. The zero value is ready; safe for concurrent use.
type ScratchGauge struct{ peak atomic.Int64 }

// Peak returns the highest value the gauge was raised to.
func (g *ScratchGauge) Peak() int64 { return g.peak.Load() }

func (g *ScratchGauge) raise(v int64) {
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// stageStats derives the run's deterministic statistics from the
// resolver's, raising the scratch gauge when one is configured.
func (c Config) stageStats(cells int, st disambig.Stats) GeoStageStats {
	if c.ScratchGauge != nil {
		c.ScratchGauge.raise(st.PeakScratchBytes)
	}
	return GeoStageStats{
		Cells:            cells,
		Components:       st.Components,
		LargestComponent: st.LargestComponent,
	}
}

// geoResolution is one table's geocode+disambiguate result — the geocoded
// interpretations and the voting outcome — computed once and shared between
// the §5.2.2 spatial query augmentation and the GeoAnnotate output so a
// request wanting both never resolves the same table twice.
type geoResolution struct {
	table   *table.Table
	interps []disambig.Interpretation
	choice  map[disambig.CellRef]gazetteer.LocID
	detail  map[disambig.CellRef]map[gazetteer.LocID]float64
	stats   GeoStageStats
}

// resolveGeo geocodes the table's Location columns and runs the voting
// graph; nil when the config has no gazetteer or nothing geocodes. With a
// non-nil ctx it checks cancellation every geoCancelStride geocoded cells
// and once more before graph propagation — geocoding against a large
// gazetteer is the stage's dominant cost, and an abandoned request should
// release its admission slot instead of finishing work nobody reads. (The
// Disambiguate stage inside plan() passes no ctx, preserving its historical
// run-to-completion semantics.)
func (c Config) resolveGeo(ctx context.Context, t *table.Table) (*geoResolution, error) {
	interps, err := c.geocodeCells(ctx, t)
	if err != nil || len(interps) == 0 {
		return nil, err
	}
	choice, detail, st := disambig.ResolveScoresOpt(interps, c.Gazetteer, c.geoOptions())
	return &geoResolution{
		table:   t,
		interps: interps,
		choice:  choice,
		detail:  detail,
		stats:   c.stageStats(len(interps), st),
	}, nil
}

// geocodeCells geocodes the table's Location columns into the
// interpretation list disambiguation consumes, in column-major cell order.
// Nil when the config has no gazetteer or nothing geocodes.
func (c Config) geocodeCells(ctx context.Context, t *table.Table) ([]disambig.Interpretation, error) {
	if c.Gazetteer == nil {
		return nil, nil
	}
	const geoCancelStride = 64
	var interps []disambig.Interpretation
	cells := 0
	for _, j := range t.ColumnIndexesOfType(table.Location) {
		for i := 1; i <= t.NumRows(); i++ {
			if ctx != nil && cells%geoCancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			cells++
			cands := c.Gazetteer.Geocode(t.Cell(i, j))
			if len(cands) == 0 {
				continue
			}
			interps = append(interps, disambig.Interpretation{
				Cell:       disambig.CellRef{Row: i, Col: j},
				Candidates: cands,
			})
		}
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return interps, nil
}

func (c Config) geoOptions() disambig.Options {
	return disambig.Options{Workers: c.GeoWorkers}
}

// geoFor returns the precomputed resolution when one was prepared for THIS
// table (see PrepareGeo), resolving freshly otherwise.
func (c Config) geoFor(ctx context.Context, t *table.Table) (*geoResolution, error) {
	if c.geo != nil && c.geo.table == t {
		return c.geo, nil
	}
	return c.resolveGeo(ctx, t)
}

// PrepareGeo returns a copy of the config carrying the table's resolved
// geography, so a subsequent Annotate (whose Disambiguate stage needs the
// per-row cities) and GeoAnnotate (whose output is the resolution itself)
// on the SAME table share one geocode+vote pass. The precomputation is
// bound to the given table; runs over any other table resolve freshly, so a
// prepared config is never wrong, only warmer. The error is ctx.Err() when
// the context cancels mid-resolution.
func (c Config) PrepareGeo(ctx context.Context, t *table.Table) (Config, error) {
	res, err := c.resolveGeo(ctx, t)
	if err != nil {
		return c, err
	}
	c.geo = res
	return c, nil
}

// GeoAnnotate runs the opt-in geocode+disambiguate stage over one table:
// every Location-column cell is geocoded to its candidate interpretations,
// the §5.2.2 voting graph resolves the ambiguity table-wide, and each
// geocodable cell yields one GeoAnnotation, in column-major cell order.
// Cells the gazetteer cannot geocode are omitted. Returns nil when the
// config has no gazetteer or the table has no geocodable cells.
//
// The stage executes from the immutable Config like every other pipeline
// stage: it mutates nothing, so one Config may run any number of concurrent
// GeoAnnotate calls, and it costs no search-engine queries — only gazetteer
// lookups and graph propagation (or neither, after PrepareGeo).
// Cancellation is observed between geocoded cells and before propagation;
// the error is then ctx.Err(), never a truncated result.
func (c Config) GeoAnnotate(ctx context.Context, t *table.Table) ([]GeoAnnotation, error) {
	gas, _, err := c.GeoAnnotateStats(ctx, t)
	return gas, err
}

// geoStreamThreshold is the interpretation count above which
// GeoAnnotateStats switches from the shared batch resolution to the
// streaming per-component pipeline. Variable so tests can force the
// streaming path on small tables.
var geoStreamThreshold = 4096

// GeoAnnotateStats is GeoAnnotate plus the stage's decomposition
// statistics (cell and component counts), for serving layers that surface
// them.
//
// Huge tables — above geoStreamThreshold geocoded cells, with no
// resolution prepared by PrepareGeo — take a streaming path: components
// flow straight from the disambiguation worker pool into GeoAnnotations,
// so the full per-cell score maps are never materialized; only the
// annotations themselves (and per-component scratch, pooled and bounded)
// are held. The output is byte-identical to the batch path: annotations
// are merged back into deterministic column-major (col, row) cell order,
// and scores are bit-identical by the disambig component contract.
func (c Config) GeoAnnotateStats(ctx context.Context, t *table.Table) ([]GeoAnnotation, GeoStageStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, GeoStageStats{}, err
	}
	res := c.geo
	if res == nil || res.table != t {
		interps, err := c.geocodeCells(ctx, t)
		if err != nil || len(interps) == 0 {
			return nil, GeoStageStats{}, err
		}
		if len(interps) >= geoStreamThreshold {
			return c.geoAnnotateStream(interps)
		}
		choice, detail, st := disambig.ResolveScoresOpt(interps, c.Gazetteer, c.geoOptions())
		res = &geoResolution{
			table:   t,
			interps: interps,
			choice:  choice,
			detail:  detail,
			stats:   c.stageStats(len(interps), st),
		}
	}
	out := make([]GeoAnnotation, 0, len(res.interps))
	for _, it := range res.interps {
		loc := res.choice[it.Cell]
		if loc == gazetteer.NoLocation {
			continue // unreachable: every interpretation has candidates
		}
		ga := c.geoAnnotation(it, loc, res.detail[it.Cell][loc])
		out = append(out, ga)
	}
	return out, res.stats, nil
}

// geoAnnotateStream resolves huge tables component by component: each
// component's cells are annotated the moment its scores converge, from
// whichever worker finished it, into a slot per interpretation — writes
// are disjoint because the geocode pass emits one interpretation per cell
// — then compacted back into the deterministic column-major order the
// batch path produces.
func (c Config) geoAnnotateStream(interps []disambig.Interpretation) ([]GeoAnnotation, GeoStageStats, error) {
	slot := make(map[disambig.CellRef]int, len(interps))
	for i, it := range interps {
		slot[it.Cell] = i
	}
	out := make([]GeoAnnotation, len(interps))
	st := disambig.ResolveStream(interps, c.Gazetteer, c.geoOptions(),
		func(cell disambig.CellRef, loc gazetteer.LocID, scores map[gazetteer.LocID]float64) {
			if loc == gazetteer.NoLocation {
				return // unreachable: every interpretation has candidates
			}
			i := slot[cell]
			out[i] = c.geoAnnotation(interps[i], loc, scores[loc])
		})
	compact := out[:0]
	for _, ga := range out {
		if ga.Loc != gazetteer.NoLocation {
			compact = append(compact, ga)
		}
	}
	return compact, c.stageStats(len(interps), st), nil
}

// geoAnnotation renders one resolved cell.
func (c Config) geoAnnotation(it disambig.Interpretation, loc gazetteer.LocID, score float64) GeoAnnotation {
	ga := GeoAnnotation{
		Row:        it.Cell.Row,
		Col:        it.Cell.Col,
		Location:   c.Gazetteer.FullName(loc),
		Kind:       c.Gazetteer.Kind(loc).String(),
		Candidates: len(it.Candidates),
		Score:      score,
		Loc:        loc,
	}
	if city := c.Gazetteer.CityOf(loc); city != gazetteer.NoLocation {
		ga.City = c.Gazetteer.Name(city)
	}
	return ga
}
