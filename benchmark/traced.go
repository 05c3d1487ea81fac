package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"meshcast/internal/experiments"
	"meshcast/internal/multicast"
	"meshcast/internal/packet"
	"meshcast/internal/propagation"
	"meshcast/internal/runner"
	"meshcast/internal/sim"
	"meshcast/internal/telemetry"
)

// runTraced is the separate traced run. It times an untraced pass of the
// batch on the runner pool (the pool's own job timings give the runner
// metrics) and an untraced serial pass as the overhead baseline. It then runs
// the same batch one scenario at a time with the benchmark's seams in place:
// a wrapping fading model, a protocol factory wrapping the real one, and a
// telemetry registry for the layers' counters. The traced outputs must
// equal the untraced ones exactly. Direct calls into each layer, on the
// workload's own topology and frames, give the remaining timings.
func runTraced(w *workload, seed uint64, sz sizing, stdout io.Writer) (*report, error) {
	dir, err := runDir(w)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	half := sizing{seconds: max(1, sz.seconds/2), short: sz.short}
	jobs, err := w.jobs(seed, half, dir)
	if err != nil {
		return nil, err
	}
	spans := newSpanRecorder()
	root := spans.begin("workload "+w.name, -1)

	// Untraced pass on the pool. The pool's own metrics time each job, and
	// its last progress call ends its wall time (an observed workload reads
	// its artifacts back after that).
	reg := telemetry.NewRegistry()
	var poolStart, poolEnd time.Time
	bo := experiments.BatchOptions{
		Workers:     runtime.NumCPU(),
		PoolMetrics: runner.NewMetrics(reg),
		Progress: func(p runner.Progress) {
			if p.Done == p.Total {
				poolEnd = time.Now()
			}
		},
	}
	id := spans.begin("untraced pass", root)
	runtime.GC()
	poolStart = time.Now()
	results, err := w.runBatch(jobs, bo)
	spans.end(id)
	if err != nil {
		return nil, err
	}
	untraced, t := checkResults(w, seed, half, jobs, results, stdout)

	// The overhead compares serial passes: parallel jobs slow each other
	// down, so the pool's job times are no baseline for the serial traced
	// pass.
	id = spans.begin("untraced serial pass", root)
	start := time.Now()
	for _, j := range jobs {
		if _, err := w.runJob(j); err != nil {
			return nil, err
		}
	}
	serialUntraced := time.Since(start)
	spans.end(id)

	// Traced pass, one scenario at a time.
	id = spans.begin("traced pass", root)
	traced := make([]tracedOutcome, len(jobs))
	start = time.Now()
	for i, j := range jobs {
		sid := spans.begin(fmt.Sprintf("scenario %d", i), id)
		traced[i], err = runWithSeams(w, j, filepath.Join(dir, fmt.Sprintf("traced-%03d", i)))
		spans.end(sid)
		t.attempted++
		switch {
		case err != nil:
			t.fail(stdout, "traced scenario %d: %v", i, err)
		case untraced[i].res != nil && fingerprint(traced[i].bare()) != fingerprint(untraced[i].res):
			t.wrong(stdout, "traced scenario %d's outputs differ from the untraced run's", i)
		}
	}
	tracedWall := time.Since(start)
	spans.end(id)
	if w.name == "paper-fig2" {
		t.attempted++
		if err := sameFigure2Rows(jobs, untraced, traced); err != nil {
			t.wrong(stdout, "traced serial sweep vs parallel sweep: %v", err)
		}
	}

	values := layerCounts(traced)
	jobSeconds := reg.Snapshot().Histograms["runner.job_seconds"]
	values["runner.jobs"] = float64(jobSeconds.Count)
	values["runner.job_s"] = jobSeconds.Sum / float64(jobSeconds.Count)
	values["runner.busy_ratio"] = jobSeconds.Sum / (poolEnd.Sub(poolStart).Seconds() * float64(bo.Workers))
	values["bench.trace_overhead_pct"] = 100 * (tracedWall.Seconds()/serialUntraced.Seconds() - 1)

	id = spans.begin("layer probes", root)
	err = probeLayers(w, seed, half, jobs[0].cfg, traced, values, spans, id)
	spans.end(id)
	spans.end(root)
	if err != nil {
		return nil, err
	}
	if err := spans.write(filepath.Join(outDir, fmt.Sprintf("spans-%s.jsonl", w.name)), stdout); err != nil {
		return nil, err
	}
	rep := t.report()
	return rep, setMetrics(rep, perLayer, values)
}

// tracedOutcome is one traced scenario's outputs and what its seams saw.
type tracedOutcome struct {
	outcome
	counters map[string]uint64
	fading   *fadingSeam
	handle   map[string]handleStat
	// samplerEvents counts the engine events the benchmark's own recorder
	// added to the run (one per telemetry sample).
	samplerEvents uint64
}

// bare returns the traced run's result as the untraced run reports it:
// without the events of the recorder the benchmark attached.
func (t tracedOutcome) bare() *experiments.RunResult {
	res := *t.res
	res.Events -= t.samplerEvents
	return &res
}

const tracedPrefix = "traced-"

// runWithSeams runs one job with the benchmark's seams in place.
func runWithSeams(w *workload, j job, dir string) (tracedOutcome, error) {
	proto, err := multicast.Resolve(j.cfg.Protocol)
	if err != nil {
		return tracedOutcome{}, err
	}
	inner := j.cfg.Fading
	if inner == nil {
		inner = propagation.Rayleigh{}
	}
	fading := &fadingSeam{inner: inner}
	j.cfg.Fading = fading
	j.cfg.Protocol = tracedPrefix + proto
	for _, s := range handleSeams {
		*s = handleStat{}
	}
	var out tracedOutcome
	if w.observed {
		j.dir = dir
		out.outcome, err = w.runJob(j)
		if err == nil {
			out.counters = out.obs.manifest.Counters
		}
	} else {
		// A recorder gives the layers' counters; sampling once at the end
		// keeps its own cost out of the way.
		var rec *telemetry.Recorder
		if rec, err = telemetry.NewRecorder(dir, j.cfg.Duration); err != nil {
			return out, err
		}
		j.cfg.Telemetry = rec
		out.res, err = experiments.RunScenario(j.cfg)
		out.counters = rec.Registry().Snapshot().Counters
		out.samplerEvents = uint64(rec.Sampler().Samples())
	}
	out.fading = fading
	out.handle = make(map[string]handleStat, len(handleSeams))
	for name, s := range handleSeams {
		out.handle[name] = *s
	}
	return out, err
}

// fadingSeam wraps a scenario's fading model. It counts the per-receiver
// draws and keeps the first mean powers as input for the fading probe.
type fadingSeam struct {
	inner propagation.Fading
	calls uint64
	means []float64
}

func (f *fadingSeam) Apply(mean float64, rng *sim.RNG) float64 {
	f.calls++
	if len(f.means) < 4096 {
		f.means = append(f.means, mean)
	}
	return f.inner.Apply(mean, rng)
}

// handleStat accumulates one protocol's Handle calls.
type handleStat struct {
	calls uint64
	ns    int64
}

// handleSeams holds the traced protocol wrappers' timings, by protocol
// name. Traced scenarios run one at a time on one goroutine, so the
// wrappers share it without locking.
var handleSeams = map[string]*handleStat{}

func init() {
	for _, name := range []string{"odmrp", "mcst"} {
		name, stat := name, &handleStat{}
		handleSeams[name] = stat
		multicast.Register(tracedPrefix+name, func(env multicast.Env, tuning any) (multicast.Protocol, error) {
			p, err := multicast.New(name, env, tuning)
			if err != nil {
				return nil, err
			}
			return timedProtocol{Protocol: p, stat: stat, engine: env.Engine}, nil
		})
	}
}

// timedProtocol is a real protocol instance with its Handle timed. While a
// heapSampler is active it also lets it sample.
type timedProtocol struct {
	multicast.Protocol
	stat   *handleStat
	engine *sim.Engine
}

func (p timedProtocol) Handle(pk *packet.Packet, from packet.NodeID) bool {
	start := time.Now()
	ok := p.Protocol.Handle(pk, from)
	p.stat.ns += time.Since(start).Nanoseconds()
	p.stat.calls++
	if activeHeap != nil {
		activeHeap.observe(p.engine.Now())
	}
	return ok
}

// heapSampler reads the live heap at fixed simulated instants: the first
// Handle at or after each multiple of every runs a collection and reads
// what is live. Like handleSeams it serves one scenario at a time.
type heapSampler struct {
	every, next time.Duration
	peak        uint64
}

var activeHeap *heapSampler

func (h *heapSampler) observe(now time.Duration) {
	if now < h.next {
		return
	}
	for h.next <= now {
		h.next += h.every
	}
	runtime.GC()
	h.peak = max(h.peak, readMetric(liveHeap))
}

// layerCounters maps per-layer metrics to the telemetry counters they are
// read from ("phy.delivered" only feeds phy.decode_ratio).
var layerCounters = map[string]string{
	"phy.tx":                   "phy.frames_sent",
	"phy.delivered":            "phy.frames_delivered",
	"phy.collisions":           "phy.collisions",
	"mobility.moves":           "mobility.moves",
	"mobility.link_breaks":     "mobility.link_breaks",
	"mac.enqueued":             "mac.enqueued",
	"mac.backoffs":             "mac.backoffs",
	"mac.queue_drops":          "mac.queue_drops",
	"odmrp.queries_forwarded":  "odmrp.queries_forwarded",
	"mcst.announces_forwarded": "mcst.announces_forwarded",
	"linkquality.probes_sent":  "linkquality.probes_sent",
	"linkquality.ewma_updates": "linkquality.ewma_updates",
}

// layerCounts turns the traced pass's counters and seam tallies into
// per-scenario means and ratios.
func layerCounts(traced []tracedOutcome) map[string]float64 {
	sum := map[string]float64{}
	var handleCalls, handleNs = map[string]float64{}, map[string]float64{}
	n := 0
	for _, t := range traced {
		if t.res == nil {
			continue
		}
		n++
		sum["sim.events"] += float64(t.res.Events)
		sum["phy.arrivals"] += float64(t.fading.calls)
		for metricName, counter := range layerCounters {
			sum[metricName] += float64(t.counters[counter])
		}
		for name, h := range t.handle {
			handleCalls[name] += float64(h.calls)
			handleNs[name] += float64(h.ns)
		}
		if t.obs != nil {
			sum["telemetry.samples"] += float64(t.obs.samples)
			sum["trace.spans"] += float64(t.obs.spans)
			sum["trace.reconstruct_s"] += t.obs.reconstructS
		}
	}
	out := map[string]float64{}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out["phy.fanout"] = ratio(sum["phy.arrivals"], sum["phy.tx"])
	out["phy.decode_ratio"] = ratio(sum["phy.delivered"], sum["phy.arrivals"])
	delete(sum, "phy.delivered")
	for name, v := range sum {
		out[name] = ratio(v, float64(n))
	}
	for _, name := range []string{"odmrp", "mcst"} {
		out[name+".handle_calls"] = ratio(handleCalls[name], float64(n))
		out[name+".handle_ns"] = ratio(handleNs[name], handleCalls[name])
	}
	for _, name := range []string{"telemetry.samples", "trace.spans"} {
		if _, ok := out[name]; !ok {
			out[name] = 0 // the workload runs with the layer off
		}
	}
	return out
}

// sameFigure2Rows checks that the traced serial sweep folds into the same
// Figure 2 rows as the untraced parallel sweep.
func sameFigure2Rows(jobs []job, untraced []outcome, traced []tracedOutcome) error {
	cfgs := make([]experiments.ScenarioConfig, len(jobs))
	touts := make([]outcome, len(traced))
	for i := range jobs {
		cfgs[i] = jobs[i].cfg
		touts[i] = traced[i].outcome
	}
	a, err := figure2Rows(cfgs, untraced)
	if err != nil {
		return err
	}
	b, err := figure2Rows(cfgs, touts)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("rows differ:\n%+v\n%+v", a, b)
	}
	return nil
}

// spanRecorder keeps the traced run's spans in memory; write puts them out
// when the run ends.
type spanRecorder struct {
	t0    time.Time
	spans []benchSpan
}

type benchSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

func (r *spanRecorder) begin(name string, parent int) int {
	r.spans = append(r.spans, benchSpan{ID: len(r.spans), Parent: parent, Name: name, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(id int) { r.spans[id].End = int64(time.Since(r.t0)) }

// computeSelf sets each span's self time: its duration minus the part of its
// interval that its children cover.
func (r *spanRecorder) computeSelf() {
	children := make(map[int][]benchSpan)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			from, to := max(k.Start, reach), min(k.End, s.End)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// write puts the spans out as JSON lines at path and prints the self time
// per span name.
func (r *spanRecorder) write(path string, stdout io.Writer) error {
	r.computeSelf()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	self := map[string]int64{}
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
		self[spanKind(s.Name)] += s.Self
	}
	if err := f.Close(); err != nil {
		return err
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "# span self %-28s %10.3f s\n", n, time.Duration(self[n]).Seconds())
	}
	fmt.Fprintf(stdout, "# spans written to %s\n", path)
	return nil
}

// spanKind strips a trailing " <n>" so that numbered spans group by kind.
func spanKind(name string) string {
	i := len(name)
	for i > 0 && name[i-1] >= '0' && name[i-1] <= '9' {
		i--
	}
	if i == len(name) || i == 0 || name[i-1] != ' ' {
		return name
	}
	return name[:i-1]
}
