package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/snapshot"
	"repro/internal/world"
)

// env is one run's shared set-up: the seed-42 world snapshot every service
// boots from, the regenerated world the inputs are drawn from, and the boot
// timings that make up setup_s.
type env struct {
	spec    *spec
	seed    int64
	seconds float64
	nproc   int
	dir     string // scratch directory of this run, inside the checkout
	snap    string // snapshot file path
	world   *world.World
	// boots are the boot times with the hypervisor's stolen share taken
	// out (see unstolen); rawBoots are the plain wall times.
	boots, rawBoots []float64
}

// newEnv builds the seed-42 world once, writes it as a snapshot into a
// scratch directory under base, and regenerates the world for input
// generation (a snapshot-booted Service carries no world).
func newEnv(ctx context.Context, sp *spec, base string, seed int64, seconds float64) (*env, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{spec: sp, seed: seed, seconds: seconds, nproc: runtime.NumCPU(), dir: dir, snap: filepath.Join(dir, "world.tsnp")}
	built, err := repro.New(ctx, repro.WithSeed(sp.WorldSeed))
	if err != nil {
		e.close()
		return nil, fmt.Errorf("building the seed-%d world: %w", sp.WorldSeed, err)
	}
	f, err := os.Create(e.snap)
	if err != nil {
		e.close()
		return nil, err
	}
	if _, err := built.WriteSnapshot(f, "perfbench"); err != nil {
		f.Close()
		e.close()
		return nil, fmt.Errorf("writing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		e.close()
		return nil, err
	}
	e.world = world.Generate(world.Config{Seed: sp.WorldSeed, KBPerType: 60})
	return e, nil
}

// close removes the run's scratch directory.
func (e *env) close() { os.RemoveAll(e.dir) }

// boot starts one snapshot-booted service and records its boot time.
func (e *env) boot(ctx context.Context, opts ...repro.Option) (*repro.Service, error) {
	opts = append([]repro.Option{repro.WithSnapshot(e.snap)}, opts...)
	// Start every boot from a collected heap, so its time does not depend
	// on how much garbage the previous step left.
	runtime.GC()
	steal, start := startSteal(), time.Now()
	svc, err := repro.New(ctx, opts...)
	if err != nil {
		return nil, fmt.Errorf("booting from snapshot: %w", err)
	}
	wall := time.Since(start).Seconds()
	e.rawBoots = append(e.rawBoots, wall)
	e.boots = append(e.boots, unstolen(wall, steal.share()))
	return svc, nil
}

// finishSetup pads the boot samples to the spec's count with throwaway
// boots, so setup_s is always a median over the same number of boots, and
// returns freed set-up memory to the OS before the measured phase.
func (e *env) finishSetup(ctx context.Context) error {
	for len(e.boots) < e.spec.SetupBoots {
		if _, err := e.boot(ctx); err != nil {
			return err
		}
	}
	debug.FreeOSMemory()
	return nil
}

// setupSeconds is the median unstolen boot time.
func (e *env) setupSeconds() float64 { return median(e.boots) }

// snapshotReadSeconds times snapshot.ReadFile directly: the snapshot layer's
// share of a boot.
func (e *env) snapshotReadSeconds(n int) (float64, error) {
	s := make([]float64, n)
	for i := range s {
		start := time.Now()
		if _, err := snapshot.ReadFile(e.snap); err != nil {
			return 0, err
		}
		s[i] = time.Since(start).Seconds()
	}
	return median(s), nil
}

// rssSampler records the highest resident set size seen while it runs.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak int64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	rss := residentBytes()
	s.mu.Lock()
	s.peak = max(s.peak, rss)
	s.mu.Unlock()
}

// peakMB stops the sampler and returns the peak in MB (10^6 bytes).
func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	<-s.done
	s.sample()
	return float64(s.peak) / 1e6
}

// residentBytes reads the process's resident set size from /proc/self/statm;
// 0 when it is unavailable.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN() // reported as a run error by the metric check
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// cpuTicks reads the machine-wide CPU tick counters of /proc/stat: steal
// (time the hypervisor ran something else while a virtual CPU of this
// machine wanted to run) and busy (user, nice, system, irq, softirq and
// steal: all time some virtual CPU wanted to run). Both are 0 when the
// file is unavailable.
func cpuTicks() (steal, busy int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return 0, 0
		}
	}
	// user, nice, system, idle, iowait, irq, softirq, steal
	return v[7], v[0] + v[1] + v[2] + v[5] + v[6] + v[7]
}

// stealMeter measures how much of the CPU time this machine wanted the
// hypervisor gave to other tenants over an interval. On a shared virtual
// machine that share moves from run to run with the neighbours' load, and
// CPU-bound work slows by about that share.
type stealMeter struct{ steal, busy int64 }

func startSteal() stealMeter {
	s, b := cpuTicks()
	return stealMeter{s, b}
}

// share returns stolen / wanted CPU ticks since the meter started; 0 when
// /proc/stat is unavailable or nothing ran.
func (m stealMeter) share() float64 {
	s, b := cpuTicks()
	if b <= m.busy {
		return 0
	}
	return float64(s-m.steal) / float64(b-m.busy)
}

// unstolen scales a CPU-bound wall time to the part of it the hypervisor
// did not steal: the time the same work takes on a machine whose virtual
// CPUs are not shared.
func unstolen(wall float64, stealShare float64) float64 { return wall * (1 - stealShare) }

// runtimeCounters is a runtime/metrics reading: GC CPU, available and idle
// CPU, and heap allocation bytes, cumulative since process start.
type runtimeCounters struct{ gcCPU, totalCPU, idleCPU, allocBytes float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeCounters{gcCPU: val(0), totalCPU: val(1), idleCPU: val(2), allocBytes: val(3)}
}

// elapsed returns the counters accumulated from r to now.
func (r runtimeCounters) elapsed() runtimeCounters {
	now := readRuntime()
	return runtimeCounters{now.gcCPU - r.gcCPU, now.totalCPU - r.totalCPU, now.idleCPU - r.idleCPU, now.allocBytes - r.allocBytes}
}

func (r runtimeCounters) add(o runtimeCounters) runtimeCounters {
	return runtimeCounters{r.gcCPU + o.gcCPU, r.totalCPU + o.totalCPU, r.idleCPU + o.idleCPU, r.allocBytes + o.allocBytes}
}

// rates turns accumulated counters into the GC share of the CPU time the Go
// runtime did not spend idle, and the heap bytes allocated per op.
func (r runtimeCounters) rates(ops int) (gcFrac, allocPerOp float64) {
	if cpu := r.totalCPU - r.idleCPU; cpu > 0 {
		gcFrac = r.gcCPU / cpu
	}
	if ops > 0 {
		allocPerOp = r.allocBytes / float64(ops)
	}
	return gcFrac, allocPerOp
}

func median(v []float64) float64 { return quantile(v, 500) }

// quantile returns the permille-th quantile of v by the nearest-rank rule
// (500 = median, 990 = p99); v is not modified. NaN when v is empty.
func quantile(v []float64, permille int) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(permille) / 1000 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
