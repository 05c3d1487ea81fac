package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"meshcast/internal/experiments"
	"meshcast/internal/multicast"
	"meshcast/internal/runner"
)

// runTimed is the untraced run: one timed pass over the workload's batch,
// the checks, and set-up timing in three blocks around them. Every operation
// is a scenario run of the batch, a repeat of one of its first scenarios, or
// the workload's batch check.
func runTimed(w *workload, seed uint64, sz sizing, stdout io.Writer) (*report, error) {
	dir, err := runDir(w)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	jobs, err := w.jobs(seed, sz, dir)
	if err != nil {
		return nil, err
	}
	setup := &setupTimer{w: w, seed: seed, sz: sz}
	if err := setup.block(); err != nil {
		return nil, err
	}

	var results []runner.Result[outcome]
	pass := measurePass(func() { results, err = w.runBatch(jobs, experiments.BatchOptions{Workers: runtime.NumCPU()}) })
	if err != nil {
		return nil, err
	}
	outs, tally := checkResults(w, seed, sz, jobs, results, stdout)
	if err := setup.block(); err != nil {
		return nil, err
	}

	// Repeats of the batch's first scenarios must give identical simulated
	// outputs. Run alone, they also give the peak heap one scenario needs.
	var peaks []float64
	for r := 0; r < min(max(1, w.repeats), len(jobs)); r++ {
		tally.attempted++
		again := jobs[r]
		if w.observed {
			again.dir = filepath.Join(dir, fmt.Sprintf("repeat-%d", r))
		}
		rerun, peak, err := peakHeap(w, again)
		peaks = append(peaks, float64(peak))
		if err != nil {
			tally.fail(stdout, "repeat of scenario %d: %v", r, err)
		} else if outs[r].res != nil && fingerprint(rerun.res) != fingerprint(outs[r].res) {
			tally.wrong(stdout, "repeat of scenario %d gave different outputs", r)
		}
	}

	if err := setup.block(); err != nil {
		return nil, err
	}

	rep := tally.report()
	err = setMetrics(rep, endToEnd, map[string]float64{
		"setup_s":      median(setup.times),
		"run_s":        pass.wall.Seconds(),
		"peak_heap_mb": median(peaks) / 1e6,
		"alloc_mb":     float64(pass.allocBytes) / 1e6,
		"goodput_kbps": goodput(jobs, outs),
	})
	return rep, err
}

// tally counts a run's operations.
type tally struct {
	attempted, failed int
	// incorrect is set when an operation returned outputs that failed a
	// check; an operation that only errored leaves it clear.
	incorrect bool
}

func (t *tally) fail(w io.Writer, format string, args ...any) {
	t.failed++
	fmt.Fprintf(w, "# FAILED: "+format+"\n", args...)
}

func (t *tally) wrong(w io.Writer, format string, args ...any) {
	t.incorrect = true
	t.fail(w, format, args...)
}

func (t *tally) report() *report {
	return &report{Correct: !t.incorrect, Attempted: t.attempted, Failed: t.failed}
}

// checkResults checks every scenario run of a pass and the workload's batch
// check. Failed runs come back with a zero outcome.
func checkResults(w *workload, seed uint64, sz sizing, jobs []job, results []runner.Result[outcome], stdout io.Writer) ([]outcome, *tally) {
	t := &tally{}
	outs := make([]outcome, len(results))
	cfgs := make([]experiments.ScenarioConfig, len(jobs))
	for i, r := range results {
		cfgs[i] = jobs[i].cfg
		t.attempted++
		if r.Err != nil {
			t.fail(stdout, "%s: %v", r.Label, r.Err)
			continue
		}
		if err := checkScenario(jobs[i].cfg, r.Value.res); err != nil {
			t.wrong(stdout, "%s: %v", r.Label, err)
			continue
		}
		outs[i] = r.Value
	}
	if w.check != nil {
		t.attempted++
		if err := w.check(seed, sz, cfgs, outs); err != nil {
			t.wrong(stdout, "%s batch check: %v", w.name, err)
		}
	}
	return outs, t
}

// runDir is this process's artifact directory for w.
func runDir(w *workload) (string, error) {
	dir := filepath.Join(outDir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}

// goodput is the median over the batch's successful runs of the payload
// bits delivered to members per simulated second of traffic. A median, not
// a mean: about one MCST run in eight on the mobile metro forms a tree that
// delivers twice what the others do, and a mean over a batch would move by a
// fifth with how many such runs a seed happens to draw.
func goodput(jobs []job, outs []outcome) float64 {
	var kbps []float64
	for i, o := range outs {
		if o.res != nil {
			window := (jobs[i].cfg.Duration - jobs[i].cfg.TrafficStart).Seconds()
			kbps = append(kbps, float64(o.res.Summary.DataBytesReceived)*8/1000/window)
		}
	}
	return median(kbps)
}

// setupTimer times building the workload's scenarios up to the first event:
// generation plus RunScenario with the simulated duration cut to zero. One
// build is short (~0.2 ms at 50 nodes, ~35 ms at 10k nodes), so each block
// repeats it, cycling through the batch. A run times three blocks, at its
// start, middle and end, so that a burst of load on the host weighs on one
// block only, and reports the median over every build.
type setupTimer struct {
	w     *workload
	seed  uint64
	sz    sizing
	next  int // the batch scenario the next build makes
	times []float64
}

func (s *setupTimer) block() error {
	minReps, minTime := 5, 800*time.Millisecond
	if s.sz.short {
		minReps, minTime = 2, 0
	}
	n := s.w.size(s.sz)
	start := time.Now()
	for rep := 0; rep < 500 && (rep < minReps || time.Since(start) < minTime); rep++ {
		i := s.next % n
		s.next++
		runtime.GC()
		t0 := time.Now()
		cfg, err := s.w.scenario(s.seed, s.sz, i)
		if err != nil {
			return err
		}
		cfg.Duration = 0
		if _, err := experiments.RunScenario(cfg); err != nil {
			return fmt.Errorf("set-up of scenario %d: %w", i, err)
		}
		s.times = append(s.times, time.Since(t0).Seconds())
	}
	return nil
}

// passStats is what measurePass observed.
type passStats struct {
	wall       time.Duration
	allocBytes uint64 // bytes allocated during the pass
}

// measurePass times fn after a GC.
func measurePass(fn func()) passStats {
	runtime.GC()
	alloc0 := readMetric("/gc/heap/allocs:bytes")
	start := time.Now()
	fn()
	wall := time.Since(start)
	return passStats{wall: wall, allocBytes: readMetric("/gc/heap/allocs:bytes") - alloc0}
}

// peakHeap runs j alone and returns the highest live heap it adds above
// what was live when it started. The live heap is only known when a
// collection ends, and where default-paced collections land varies from run
// to run; so the run goes through the traced protocol wrappers, which
// collect and read the live heap at 32 evenly spaced simulated instants
// (see heapSampler). The peak is then a property of the scenario.
func peakHeap(w *workload, j job) (outcome, uint64, error) {
	proto, err := multicast.Resolve(j.cfg.Protocol)
	if err != nil {
		return outcome{}, 0, err
	}
	j.cfg.Protocol = tracedPrefix + proto
	runtime.GC()
	base := readMetric(liveHeap)
	activeHeap = &heapSampler{every: j.cfg.Duration / 32}
	defer func() { activeHeap = nil }()
	out, err := w.runJob(j)
	if activeHeap.peak < base {
		return out, 0, err
	}
	return out, activeHeap.peak - base, err
}

const liveHeap = "/gc/heap/live:bytes"

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
