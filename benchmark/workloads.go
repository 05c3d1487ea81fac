package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"meshcast/internal/experiments"
	"meshcast/internal/metric"
	"meshcast/internal/mobility"
	"meshcast/internal/runner"
	"meshcast/internal/sim"
	"meshcast/internal/telemetry"
	"meshcast/internal/topology"
	"meshcast/internal/trace"
)

// sizing sets how much work a run's batch holds. Batch sizes follow
// --seconds (never the elapsed time), so a seed names the same inputs on any
// machine and a faster program finishes the same batch sooner.
type sizing struct {
	seconds int
	short   bool
}

// count is the batch size for a workload that runs perSecond scenarios per
// second of --seconds.
func (sz sizing) count(perSecond float64) int {
	if sz.short {
		return 1
	}
	if n := int(float64(sz.seconds) * perSecond); n > 1 {
		return n
	}
	return 1
}

// The benchmark fixes where nodes stand and varies everything else with
// --seed. Placement dominates every metric: across 50-node topologies the
// SPP delivery ratio and the run time each vary by tens of percent, and
// across metro placement seeds the 10k metro delivers from 0 to ~5% of its
// packets while its event count doubles (README.md lists the members each
// metro source can reach). With placement free, every metric would mostly
// measure which topologies a seed drew. So the paper-scale workloads run on
// the paper's numbered topologies (seeds 1, 2, ... as in
// experiments.FullOptions), the metro workloads on the placement of seed 1,
// and --seed picks the run seeds: fading draws, MAC backoff, CBR jitter,
// probe timing and motion.
const metroPlacementSeed = 1

// runSeed derives the i-th run seed of a batch from the benchmark's seed.
func runSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) + 1 }

// workload is one benchmark input set and how it runs.
type workload struct {
	name, why string
	// observed runs each scenario with a telemetry recorder and span
	// tracing, then reads both back (see observe).
	observed bool
	// size is the number of scenario runs in the batch.
	size func(sz sizing) int
	// scenario generates the i-th scenario of the batch for seed.
	scenario func(seed uint64, sz sizing, i int) (experiments.ScenarioConfig, error)
	// check runs the workload's own checks over the whole batch.
	check func(seed uint64, sz sizing, cfgs []experiments.ScenarioConfig, outs []outcome) error
	// repeats is how many of the batch's first scenarios a timed run
	// repeats alone (at least one); peak_heap_mb is the median of their
	// peaks. paper-fig2 takes five: a 50-node run adds only ~0.3 MB, so one
	// topology's quirks would weigh heavily. metro-10k takes three: a
	// 10k-node run's peak depends on whether its floods collide into a
	// storm of pending arrivals (70 to 99 MB).
	repeats int
}

var workloads = []*workload{
	{
		name:     "paper-fig2",
		why:      "the paper's Figure 2 sweep (MinHop + 5 metrics, 50 nodes) on the runner pool: probes, estimators, metric algebra, shallow event queue",
		size:     func(sz sizing) int { return 6 * paperTopologies(sz) },
		scenario: paperScenario,
		check:    checkFigure2,
		repeats:  5,
	},
	{
		name:     "metro-10k",
		why:      "10k-node metro, MinHop, static: city-scale fan-out (~650 receivers per frame), deep event queue, largest set-up and heap, no probing",
		size:     func(sz sizing) int { return sz.count(0.5) },
		scenario: metro10k,
		repeats:  3,
	},
	{
		name:     "metro-1k-mobile",
		why:      "1k-node metro, MCST with 3 sources per group, waypoint motion at 10 m/s: MoveRadio re-bucketing and cache invalidation, tree repair",
		size:     func(sz sizing) int { return sz.count(0.4) },
		scenario: metroMobile,
		check:    checkMoveConsistency,
	},
	{
		name:     "spp-observed",
		why:      "paper-scale SPP runs with telemetry recorder and span tracing on, then trace.Reconstruct and manifest reading: the observability cost",
		observed: true,
		size:     func(sz sizing) int { return sz.count(1.2) },
		scenario: sppObserved,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// jobs generates the batch for seed. Each observed job gets its own
// artifact directory under dir.
func (w *workload) jobs(seed uint64, sz sizing, dir string) ([]job, error) {
	n := w.size(sz)
	out := make([]job, n)
	for i := range out {
		cfg, err := w.scenario(seed, sz, i)
		if err != nil {
			return nil, fmt.Errorf("%s scenario %d: %w", w.name, i, err)
		}
		out[i] = job{cfg: cfg}
		if w.observed {
			out[i].dir = filepath.Join(dir, fmt.Sprintf("scenario-%03d", i))
		}
	}
	return out, nil
}

// paperWindows returns the warm-up and traffic windows of the paper-scale
// workloads: shortened from the paper's 100 s + 400 s so a sweep over many
// topologies fits one run.
func paperWindows(sz sizing) (warm, traffic time.Duration) {
	if sz.short {
		return 10 * time.Second, 10 * time.Second
	}
	return 10 * time.Second, 20 * time.Second
}

// paperTopologies is the number of random topologies a sweep covers; the
// short run keeps three, enough for the Figure 2 direction to hold.
func paperTopologies(sz sizing) int {
	if sz.short {
		return 3
	}
	return sz.count(0.4)
}

// paperScenario lays the sweep out like experiments.RunPaperSims does: the
// MinHop baseline over every topology first, then each link-quality metric
// over the same topologies. Every metric on a topology gets the same run
// seed, as in the paper's sweep.
func paperScenario(seed uint64, sz sizing, i int) (experiments.ScenarioConfig, error) {
	topos := paperTopologies(sz)
	kinds := append([]metric.Kind{metric.MinHop}, metric.LinkQuality()...)
	cfg, err := experiments.DefaultScenario(kinds[i/topos], uint64(i%topos)+1)
	if err != nil {
		return cfg, err
	}
	cfg.Seed = runSeed(seed, i%topos)
	warm, traffic := paperWindows(sz)
	cfg.TrafficStart = warm
	cfg.Duration = warm + traffic
	return cfg, nil
}

func metroNodes(sz sizing, full int) int {
	if sz.short {
		return 300
	}
	return full
}

// metroDuration is a metro run's simulated length: 1 s of warm-up, then
// traffic. The mobile metro runs longer, through four rounds of MCST core
// announcements, so each run averages over several rebuilt trees.
func metroDuration(sz sizing, full time.Duration) time.Duration {
	if sz.short {
		return 3 * time.Second
	}
	return full
}

// metro10k is experiments.MetroScenario on the fixed city, with the run seed
// and a 5 s traffic window (two ODMRP query rounds per source).
func metro10k(seed uint64, sz sizing, i int) (experiments.ScenarioConfig, error) {
	cfg, err := experiments.MetroScenario(metroNodes(sz, 10000), metroPlacementSeed)
	if err != nil {
		return cfg, err
	}
	cfg.Seed = runSeed(seed, i)
	cfg.Duration = metroDuration(sz, 6*time.Second)
	return cfg, nil
}

// metroMobile is the 1k metro city with MCST, three sources per group and a
// 10 m/s waypoint mover over the whole traffic window. Its groups are drawn
// from the placement's RNG stream exactly as MetroScenario draws its own,
// with three sources instead of one.
func metroMobile(seed uint64, sz sizing, i int) (experiments.ScenarioConfig, error) {
	n := metroNodes(sz, 1000)
	cfg, err := experiments.MetroScenario(n, metroPlacementSeed)
	if err != nil {
		return cfg, err
	}
	rng := sim.NewRNG(metroPlacementSeed ^ 0x9e3779b97f4a7c15)
	topology.Metro(rng, topology.MetroConfig{Nodes: n, GatewaySpacingM: 2000})
	cfg.Groups = experiments.DefaultGroups(rng.Split(), n, 2, 3, 10)
	cfg.Seed = runSeed(seed, i)
	cfg.Protocol = "mcst"
	cfg.Duration = metroDuration(sz, 12*time.Second)
	cfg.Mobility = &mobility.Config{
		Model:       mobility.ModelWaypoint,
		MaxSpeedMps: 10,
		Start:       cfg.TrafficStart,
	}
	return cfg, nil
}

// sppObserved is one paper-scale SPP scenario per topology.
func sppObserved(seed uint64, sz sizing, i int) (experiments.ScenarioConfig, error) {
	cfg, err := experiments.DefaultScenario(metric.SPP, uint64(i)+1)
	if err != nil {
		return cfg, err
	}
	cfg.Seed = runSeed(seed, i)
	warm, traffic := paperWindows(sz)
	cfg.TrafficStart = warm
	cfg.Duration = warm + traffic
	return cfg, nil
}

// job is one scenario run of a batch.
type job struct {
	cfg experiments.ScenarioConfig
	// dir receives an observed run's telemetry and span files.
	dir string
}

// outcome is one job's result.
type outcome struct {
	res *experiments.RunResult
	obs *observation
}

// observation is what an observed run reads back from its own artifacts.
type observation struct {
	spans        int
	samples      int
	reconstructS float64
	manifest     *telemetry.Manifest
}

// runJob executes one job alone, the way runBatch does.
func (w *workload) runJob(j job) (outcome, error) {
	results, err := w.runBatch([]job{j}, experiments.BatchOptions{Workers: 1})
	if err != nil {
		return outcome{}, err
	}
	return results[0].Value, results[0].Err
}

// runBatch executes the jobs the way a user of the workload would: through
// experiments.RunScenarioBatch on the runner pool, with bo's workers and no
// result cache. An observed workload gives each job a telemetry recorder and
// a span file first, as meshsim -telemetry -spans does, and reads both back
// afterwards as meshstat does, on as many workers. Results come back in
// submission order.
func (w *workload) runBatch(jobs []job, bo experiments.BatchOptions) ([]runner.Result[outcome], error) {
	sjobs := make([]experiments.ScenarioJob, len(jobs))
	streams := make([]*spanStream, len(jobs))
	closeAll := func() error {
		var first error
		for _, s := range streams {
			if s != nil {
				if err := s.close(); err != nil && first == nil {
					first = err
				}
			}
		}
		return first
	}
	for i, j := range jobs {
		sjobs[i] = experiments.ScenarioJob{Label: fmt.Sprintf("%s scenario %d", w.name, i), Config: j.cfg}
		if w.observed {
			var err error
			if streams[i], err = attachObservers(&sjobs[i].Config, j.dir); err != nil {
				closeAll()
				return nil, err
			}
		}
	}
	results, err := experiments.RunScenarioBatch(sjobs, bo)
	if cerr := closeAll(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	out := make([]runner.Result[outcome], len(jobs))
	for i, r := range results {
		out[i] = runner.Result[outcome]{Label: r.Label, Value: outcome{res: r.Value}, Err: r.Err}
	}
	if !w.observed {
		return out, nil
	}
	// Read every run's artifacts back, one job per worker as well.
	rjobs := make([]runner.Job[int], 0, len(jobs))
	for i := range jobs {
		if out[i].Err == nil {
			rjobs = append(rjobs, runner.Job[int]{Label: out[i].Label, Config: i})
		}
	}
	reader := &runner.Pool[int, *observation]{Workers: bo.Workers, Run: func(i int) (*observation, error) {
		return readBack(jobs[i].dir, out[i].Value.res)
	}}
	for k, r := range reader.Execute(rjobs) {
		i := rjobs[k].Config
		out[i].Value.obs, out[i].Err = r.Value, r.Err
		if r.Err != nil {
			out[i].Value = outcome{}
		}
	}
	return out, nil
}

// spanStream is an observed run's span file, written as meshsim -spans
// writes it.
type spanStream struct {
	f *os.File
	w *trace.SpanJSONLWriter
}

func (s *spanStream) close() error {
	flushErr := s.w.Flush()
	if err := s.f.Close(); err != nil {
		return err
	}
	return flushErr
}

const spansFile = "spans.jsonl"

// attachObservers gives cfg a telemetry recorder under dir and a span sink
// writing to a file there.
func attachObservers(cfg *experiments.ScenarioConfig, dir string) (*spanStream, error) {
	rec, err := telemetry.NewRecorder(filepath.Join(dir, "telemetry"), telemetry.DefaultSampleInterval)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, spansFile))
	if err != nil {
		return nil, err
	}
	s := &spanStream{f: f, w: trace.NewSpanJSONLWriter(f)}
	cfg.Telemetry = rec
	cfg.SpanSink = s.w
	return s, nil
}

// readBack reads an observed run's span file and telemetry artifacts the way
// meshstat -journeys and meshstat do, and checks them against the run.
func readBack(dir string, res *experiments.RunResult) (*observation, error) {
	spans, err := trace.LoadSpans(filepath.Join(dir, spansFile))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	journeys := trace.Reconstruct(spans)
	obs := &observation{spans: len(spans), reconstructS: time.Since(start).Seconds()}
	telDir := filepath.Join(dir, "telemetry")
	if obs.manifest, err = telemetry.LoadManifest(filepath.Join(telDir, telemetry.ManifestFile)); err != nil {
		return nil, err
	}
	series, err := telemetry.LoadAllSeries(telDir)
	if err != nil {
		return nil, err
	}
	obs.samples = len(series)
	if err := checkObservation(res, journeys, obs); err != nil {
		return nil, err
	}
	return obs, nil
}
