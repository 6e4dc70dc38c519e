// Package load is the cluster load driver behind cmd/loadgen (perfbench's
// serve-zipf workload reuses its Body): it builds annotate/geocode workloads
// from the seeded synthetic universe and drives them at one or more serving
// targets, either closed-loop (a fixed pool of clients, each firing its next
// request as soon as the last returns) or open-loop (Poisson arrivals at a
// fixed offered rate, independent of how fast the server answers — the
// arrival process does not slow down when the server saturates, which is
// what makes saturation visible instead of silently throttling the
// measurement).
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/world"
)

// Config drives one Run.
type Config struct {
	// Targets are the base URLs load is spread over round-robin — one
	// worker, or several replicas, or a router.
	Targets []string
	// N is the total request count.
	N int
	// Concurrency is the closed-loop client pool size; ignored when Rate
	// is set.
	Concurrency int
	// Rate, when > 0, switches to open-loop mode: requests arrive as a
	// Poisson process at this many requests/second, each served by its own
	// goroutine regardless of how many are already waiting.
	Rate float64
	// GeocodeFrac is the fraction of requests sent to /v1/geocode instead
	// of /v1/annotate (0 = pure annotate traffic).
	GeocodeFrac float64
	// Rows is the table height per request.
	Rows int
	// GeocodeRows, when > 0, overrides Rows for geocode bodies only — the
	// knob for driving large tables through the streaming geo stage while
	// the annotate traffic keeps its usual shape.
	GeocodeRows int
	// Seed selects the synthetic universe; it must match the servers'.
	Seed int64
	// Distinct suffixes every cell with the request index, defeating any
	// shared verdict cache and forcing the full search path per request.
	Distinct bool
	// Timeout bounds one request.
	Timeout time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

// Endpoint accumulates one endpoint's outcomes.
type Endpoint struct {
	Sent      int
	Statuses  map[int]int
	Latencies []time.Duration // 2xx only, sorted
	Queries   int             // server-side search queries (annotate)
	Annotated int             // cells annotated (annotate)
	Resolved  int             // cells resolved (geocode)
	Errs      int
	FirstErr  error
}

// OK is the endpoint's 200 count.
func (e *Endpoint) OK() int { return e.Statuses[http.StatusOK] }

// Result is one Run's outcome, split per endpoint.
type Result struct {
	Wall     time.Duration
	Annotate Endpoint
	Geocode  Endpoint
}

// OK is the total 200 count across endpoints.
func (r *Result) OK() int { return r.Annotate.OK() + r.Geocode.OK() }

// Latencies merges both endpoints' latencies, sorted.
func (r *Result) Latencies() []time.Duration {
	all := make([]time.Duration, 0, len(r.Annotate.Latencies)+len(r.Geocode.Latencies))
	all = append(all, r.Annotate.Latencies...)
	all = append(all, r.Geocode.Latencies...)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// request is one planned request: its body, endpoint and (open-loop mode)
// arrival offset from the run's start.
type request struct {
	body    []byte
	geocode bool
	arrival time.Duration
}

// plan builds the whole workload deterministically from the seed: bodies,
// endpoint mix and Poisson arrival schedule all come from one seeded rng, so
// two runs at the same config offer byte-identical load.
func plan(cfg Config) ([]request, error) {
	w := world.Generate(world.Config{Seed: cfg.Seed, KBPerType: 60})
	ents := w.TableEntities(world.Restaurant)
	if len(ents) == 0 {
		return nil, fmt.Errorf("universe seed %d has no restaurant entities", cfg.Seed)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	reqs := make([]request, cfg.N)
	var clock time.Duration
	for i := range reqs {
		geo := cfg.GeocodeFrac > 0 && rng.Float64() < cfg.GeocodeFrac
		if cfg.Rate > 0 {
			clock += time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second))
		}
		rows := cfg.Rows
		if geo && cfg.GeocodeRows > 0 {
			rows = cfg.GeocodeRows
		}
		body, err := Body(w, ents, i, rows, cfg.Distinct, geo)
		if err != nil {
			return nil, err
		}
		reqs[i] = request{body: body, geocode: geo, arrival: clock}
	}
	return reqs, nil
}

// Body builds one request body over the universe's entities: a Name/Phone
// restaurant table for annotate, a Name/Address one (the geocodable shape)
// for geocode.
func Body(w *world.World, ents []*world.Entity, reqIndex, rows int, distinct, geocode bool) ([]byte, error) {
	var tbl *table.Table
	if geocode {
		tbl = table.New(fmt.Sprintf("load-geo-%d", reqIndex),
			table.Column{Header: "Name", Type: table.Text},
			table.Column{Header: "Address", Type: table.Location},
		)
	} else {
		tbl = table.New(fmt.Sprintf("load-%d", reqIndex),
			table.Column{Header: "Name", Type: table.Text},
			table.Column{Header: "Phone", Type: table.Text},
		)
	}
	for r := 0; r < rows; r++ {
		e := ents[(reqIndex*rows+r)%len(ents)]
		name := e.Name
		if distinct {
			name = fmt.Sprintf("%s %d-%d", name, reqIndex, r)
		}
		var err error
		if geocode {
			err = tbl.AppendRow(name, e.Address(w.Gaz).Format())
		} else {
			err = tbl.AppendRow(name, e.Phone)
		}
		if err != nil {
			return nil, err
		}
	}
	var tblJSON bytes.Buffer
	if err := table.WriteJSON(&tblJSON, tbl); err != nil {
		return nil, err
	}
	if geocode {
		return json.Marshal(server.GeocodeRequestJSON{Table: tblJSON.Bytes()})
	}
	return json.Marshal(server.AnnotateRequestJSON{Table: tblJSON.Bytes()})
}

// Run executes the configured load test.
func Run(cfg Config) (*Result, error) {
	if cfg.N <= 0 || cfg.Rows <= 0 || len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("load: N, Rows and Targets must be set")
	}
	if cfg.Rate <= 0 && cfg.Concurrency <= 0 {
		return nil, fmt.Errorf("load: closed-loop mode needs Concurrency")
	}
	reqs, err := plan(cfg)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		// Open-loop bursts park many requests at once; without headroom the
		// transport serialises them onto too few connections and the
		// measured latency is the client's own queueing, not the server's.
		tr.MaxIdleConnsPerHost = 256
		client = &http.Client{Timeout: cfg.Timeout, Transport: tr}
	}

	res := &Result{
		Annotate: Endpoint{Statuses: map[int]int{}},
		Geocode:  Endpoint{Statuses: map[int]int{}},
	}
	var mu sync.Mutex
	fire := func(i int) {
		target := cfg.Targets[i%len(cfg.Targets)]
		path := "/v1/annotate"
		if reqs[i].geocode {
			path = "/v1/geocode"
		}
		start := time.Now()
		status, body, err := post(client, target+path, reqs[i].body)
		lat := time.Since(start)

		mu.Lock()
		defer mu.Unlock()
		ep := &res.Annotate
		if reqs[i].geocode {
			ep = &res.Geocode
		}
		ep.Sent++
		if err != nil {
			ep.Errs++
			if ep.FirstErr == nil {
				ep.FirstErr = err
			}
			return
		}
		ep.Statuses[status]++
		if status != http.StatusOK {
			return
		}
		ep.Latencies = append(ep.Latencies, lat)
		if reqs[i].geocode {
			var wire server.GeocodeResponseJSON
			if json.Unmarshal(body, &wire) == nil {
				ep.Resolved += wire.Stats.Resolved
			}
		} else {
			var wire server.AnnotateResponseJSON
			if json.Unmarshal(body, &wire) == nil {
				ep.Queries += wire.Stats.Queries
				ep.Annotated += wire.Stats.Annotated
			}
		}
	}

	startAll := time.Now()
	var wg sync.WaitGroup
	if cfg.Rate > 0 {
		// Open loop: requests launch on the planned Poisson schedule no
		// matter how many predecessors are still waiting.
		for i := range reqs {
			if d := reqs[i].arrival - time.Since(startAll); d > 0 {
				time.Sleep(d)
			}
			wg.Add(1)
			go func(i int) { defer wg.Done(); fire(i) }(i)
		}
	} else {
		next := make(chan int)
		for c := 0; c < cfg.Concurrency; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					fire(i)
				}
			}()
		}
		for i := range reqs {
			next <- i
		}
		close(next)
	}
	wg.Wait()
	res.Wall = time.Since(startAll)
	for _, ep := range []*Endpoint{&res.Annotate, &res.Geocode} {
		sort.Slice(ep.Latencies, func(i, j int) bool { return ep.Latencies[i] < ep.Latencies[j] })
	}
	return res, nil
}

func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// Percentile reads the p-th permille (p50 = 500, p999 = 999) of a sorted
// latency slice.
func Percentile(sorted []time.Duration, permille int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := len(sorted) * permille / 1000
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
