package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

//go:embed spec.json
var specJSON []byte

// spec is the benchmark's fixed definition: workload parameters, metric
// units and directions, and the layer → end-to-end metric map.
type spec struct {
	WorldSeed  int64          `json:"world_seed"`
	SetupBoots int            `json:"setup_boots"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name   string          `json:"name"`
	Why    string          `json:"why"`
	Params json.RawMessage `json:"params"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec() (*spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

// workload returns the named workload's spec.
func (s *spec) workload(name string) (*workloadSpec, bool) {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i], true
		}
	}
	return nil, false
}

// params decodes the workload's fixed parameters into dst.
func (w *workloadSpec) params(dst any) error {
	if err := json.Unmarshal(w.Params, dst); err != nil {
		return fmt.Errorf("spec.json: %s params: %w", w.Name, err)
	}
	return nil
}

// annotateParams are the fixed parameters of the annotate-* workloads.
type annotateParams struct {
	GFTCopies    int `json:"gft_copies"`
	MinPasses    int `json:"min_passes"`
	TailPermille int `json:"tail_permille"`
}

// geocodeParams are the fixed parameters of geocode-huge.
type geocodeParams struct {
	Tables          int `json:"tables"`
	RowsMin         int `json:"rows_min"`
	RowsMax         int `json:"rows_max"`
	StreamThreshold int `json:"stream_threshold"`
	RefGeoWorkers   int `json:"reference_geo_workers"`
	TailPermille    int `json:"tail_permille"`
	MinCycles       int `json:"min_cycles"`
}

// serveParams are the fixed parameters of serve-zipf.
type serveParams struct {
	Workers      int       `json:"workers"`
	RoundTripMs  float64   `json:"round_trip_ms"`
	AnnotateRows int       `json:"annotate_rows"`
	GeocodeRows  int       `json:"geocode_rows"`
	GeocodeShare float64   `json:"geocode_share"`
	UnseenShare  float64   `json:"unseen_share"`
	ZipfS        float64   `json:"zipf_s"`
	NominalRps   float64   `json:"nominal_rps"`
	NominalShare float64   `json:"nominal_share_of_run"`
	LadderRps    []float64 `json:"ladder_rps"`
	P99LimitMs   float64   `json:"p99_limit_ms"`
	TailPermille int       `json:"tail_permille"`
}
