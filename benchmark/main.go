// Command benchmark is meshcast's performance benchmark. It runs one of four
// workloads through the simulator's real entry points
// (experiments.RunScenarioBatch on the internal/runner pool, and
// experiments.RunScenario), checks the outputs against properties and
// computations made apart from the simulator, and prints every metric by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 60, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; benchmark/run.sh builds and runs it):
//
//	run.sh --workload paper-fig2 --seed 1 --seconds 20 --trace 0
//	run.sh --steady 10                    # every workload 10×, spreads vs bounds
//	run.sh --manifest BENCHMARK.json      # regenerate the benchmark manifest
//
// With --trace 0 the metrics are the end-to-end ones (timed, untraced); with
// --trace 1 a separate traced run reports the per-layer metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// runSeconds is the measured length of one run, as recorded in
// BENCHMARK.json.
const runSeconds = 20

// outDir holds what a run writes (telemetry artifacts, span files); it is
// ignored by git and lives in the checkout the benchmark runs from.
const outDir = ".bench_build"

// metricDef declares one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees; each timed run
// reports all of them. Bound is the share of the parent's median by which a
// metric may worsen before a change counts as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"peak_heap_mb", "MB", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.25},
	{"goodput_kbps", "kbit/s", "higher", 0.25},
}

// perLayer are the traced run's metrics, named after the repository's
// modules (see README.md for the end-to-end metric each should move).
var perLayer = []metricDef{
	{"sim.events", "count", "lower", 0},
	{"sim.hold_ns", "ns", "lower", 0},
	{"phy.tx", "count", "lower", 0},
	{"phy.arrivals", "count", "lower", 0},
	{"phy.fanout", "count", "lower", 0},
	{"phy.decode_ratio", "ratio", "higher", 0},
	{"phy.collisions", "count", "lower", 0},
	{"phy.transmit_ns", "ns", "lower", 0},
	{"phy.list_build_ns", "ns", "lower", 0},
	{"phy.move_ns", "ns", "lower", 0},
	{"mobility.moves", "count", "lower", 0},
	{"mobility.link_breaks", "count", "lower", 0},
	{"propagation.fading_ns", "ns", "lower", 0},
	{"mac.enqueued", "count", "lower", 0},
	{"mac.backoffs", "count", "lower", 0},
	{"mac.queue_drops", "count", "lower", 0},
	{"odmrp.handle_calls", "count", "lower", 0},
	{"odmrp.handle_ns", "ns", "lower", 0},
	{"odmrp.queries_forwarded", "count", "lower", 0},
	{"mcst.handle_calls", "count", "lower", 0},
	{"mcst.handle_ns", "ns", "lower", 0},
	{"mcst.announces_forwarded", "count", "lower", 0},
	{"linkquality.probes_sent", "count", "lower", 0},
	{"linkquality.ewma_updates", "count", "lower", 0},
	{"metric.path_cost_ns", "ns", "lower", 0},
	{"topology.gen_s", "s", "lower", 0},
	{"node.build_s", "s", "lower", 0},
	{"node.heap_bytes_per_node", "bytes", "lower", 0},
	{"runner.jobs", "count", "higher", 0},
	{"runner.job_s", "s", "lower", 0},
	{"runner.busy_ratio", "ratio", "higher", 0},
	{"telemetry.samples", "count", "lower", 0},
	{"telemetry.sample_ns", "ns", "lower", 0},
	{"trace.spans", "count", "lower", 0},
	{"trace.span_ns", "ns", "lower", 0},
	{"trace.reconstruct_s", "s", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object a run prints as its last line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", runSeconds, "measured length of the run; sizes the scenario batch")
	traced := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	steady := fs.Int("steady", 0, "run every workload this many times (alternating order) and print spreads against bounds")
	manifest := fs.String("manifest", "", "write the benchmark manifest (BENCHMARK.json) to this path and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *manifest != "":
		if err := writeManifest(*manifest); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	case *steady > 0:
		if err := runSteady(*steady, *seed, *seconds, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(stderr, "benchmark: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	printEnv(stdout)
	sz := sizing{seconds: *seconds}
	var rep *report
	var err error
	if *traced == 1 {
		rep, err = runTraced(w, *seed, sz, stdout)
	} else {
		rep, err = runTimed(w, *seed, sz, stdout)
	}
	if err != nil {
		// A run that could not complete prints no result line.
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printReport(rep, stdout)
	return 0
}

// printEnv records the machine the run measured.
func printEnv(w io.Writer) {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
	}
	data, _ := json.Marshal(env) // plain map of strings and ints
	fmt.Fprintf(w, "# env %s\n", data)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printReport prints every metric as a "name value unit" line, then the
// result object as the last line.
func printReport(rep *report, w io.Writer) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := rep.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "%-28s %16.6g %s\n", d.Name, m.Value, m.Unit)
			}
		}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		// Only a NaN or Inf metric can fail to marshal: a benchmark bug.
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", data)
}

// setMetrics fills rep.Metrics from values keyed by name, in the order and
// units of defs; a metric missing from values is an error.
func setMetrics(rep *report, defs []metricDef, values map[string]float64) error {
	rep.Metrics = make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return errors.New("metrics not measured: " + strings.Join(missing, ", "))
	}
	return nil
}

// benchmarkManifest is the BENCHMARK.json schema.
type benchmarkManifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []manifestRow `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // no bounds
}

type manifestRow struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func manifestJSON() ([]byte, error) {
	m := benchmarkManifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestRow{w.name, w.why})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func writeManifest(path string) error {
	data, err := manifestJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
