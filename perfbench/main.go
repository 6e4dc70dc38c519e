// Command perfbench is the repository's end-to-end benchmark. It drives the
// system from outside through its public entry points — repro.Service in
// process, and the internal/server worker and router handlers over loopback
// HTTP — checks every answer against a reference, and prints the metrics
// BENCHMARK.json names.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload annotate-cold --seed 1 --seconds 10 --trace 0
//
// Workloads, their fixed parameters and every metric's definition are in
// spec.json. With --trace 0 the run measures the end-to-end metrics; with
// --trace 1 it measures the same work twice, untraced and then through
// timing wrappers around each layer's public functions, and reports the
// per-layer split. The last line of standard output is the result object;
// the line before it is the full record (host, input, and each metric's
// alias on this workload). Traced runs write their spans to
// .bench_build/perfbench/traces.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workDir holds everything the benchmark writes: the binary, the Go build
// cache, per-run scratch and traces.
const workDir = ".bench_build/perfbench"

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	endToEnd          map[string]float64
	layers            map[string]float64
	input             map[string]int
	notes             map[string]any
	tracer            *tracer
}

func newOutcome() *outcome {
	return &outcome{endToEnd: map[string]float64{}, layers: map[string]float64{}, notes: map[string]any{}}
}

// count adds attempted operations and the failed ones among them.
func (o *outcome) count(attempted, failed int) {
	o.attempted += attempted
	o.failed += failed
}

func (o *outcome) e2e(name string, v float64)   { o.endToEnd[name] = v }
func (o *outcome) layer(name string, v float64) { o.layers[name] = v }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name (see spec.json)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "measured time per run")
		trace    = flag.Int("trace", 0, "1 = report the per-layer split from a traced run")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	ws, ok := sp.workload(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	ctx := context.Background()
	e, err := newEnv(ctx, sp, workDir, seed, seconds)
	if err != nil {
		return err
	}
	defer e.close()

	var o *outcome
	switch workload {
	case "annotate-cold":
		o, err = runAnnotate(ctx, e, ws, "cold", traced)
	case "annotate-cold-p1":
		o, err = runAnnotate(ctx, e, ws, "cold-p1", traced)
	case "annotate-warm":
		o, err = runAnnotate(ctx, e, ws, "warm", traced)
	case "geocode-huge":
		o, err = runGeocode(ctx, e, ws, traced)
	case "serve-zipf":
		o, err = runServe(ctx, e, ws, traced)
	default:
		err = fmt.Errorf("workload %q has no runner", workload)
	}
	if err != nil {
		return err
	}

	want, values := sp.EndToEnd, o.endToEnd
	if traced {
		read, err := e.snapshotReadSeconds(3)
		if err != nil {
			return err
		}
		o.layer("snapshot.read_s", read)
		want, values = sp.PerLayer, o.layers
		if err := writeTrace(o.tracer, workload, seed); err != nil {
			return err
		}
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok {
			v = 0 // a layer this workload does not exercise, or cannot observe from outside
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not a number", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}

	report(os.Stderr, workload, seed, traced, o, res)
	rec := map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
		"host": host(), "input": o.input, "notes": o.notes, "result": res,
		"fail_frac":   float64(res.Failed) / float64(res.Attempted),
		"recorded_at": time.Now().UTC().Format(time.RFC3339),
	}
	out := bufio.NewWriter(os.Stdout)
	if err := writeJSONLine(out, "record ", rec); err != nil {
		return err
	}
	if err := writeJSONLine(out, "", res); err != nil {
		return err
	}
	return out.Flush()
}

func writeJSONLine(w *bufio.Writer, prefix string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	w.WriteString(prefix)
	w.Write(b)
	return w.WriteByte('\n')
}

// report prints the human-readable summary: every metric by name with its
// unit, plus the failure share.
func report(f *os.File, workload string, seed int64, traced bool, o *outcome, res result) {
	mode := "end-to-end"
	if traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(f, "perfbench %s seed %d, %s\n", workload, seed, mode)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(f, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(f, "  %-28s %14.6g ratio (%d of %d operations failed or answered wrongly)\n", "fail_frac", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	keys := make([]string, 0, len(o.notes))
	for k := range o.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(f, "  note %s: %v\n", k, o.notes[k])
	}
}

// host fingerprints the machine and build the record was made on.
func host() map[string]any {
	h := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h["commit"] = s.Value
			case "vcs.modified":
				h["commit_modified"] = s.Value == "true"
			}
		}
	}
	return h
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeTrace writes the traced run's spans under workDir/traces.
func writeTrace(tr *tracer, workload string, seed int64) error {
	if tr == nil {
		return nil
	}
	dir := filepath.Join(workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.writeJSONL(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
}
