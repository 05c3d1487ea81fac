package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"meshcast/internal/experiments"
)

// TestShortWorkloads runs every workload's short mode, timed and traced, so
// that every check the benchmark makes runs in the test suite.
func TestShortWorkloads(t *testing.T) {
	sz := sizing{seconds: 1, short: true}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			rep, err := runTimed(w, 1, sz, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 2 {
				t.Fatalf("timed run: correct=%v failed=%d of %d\n%s", rep.Correct, rep.Failed, rep.Attempted, out.String())
			}
			for _, d := range endToEnd {
				if v := rep.Metrics[d.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.Name, v)
				}
			}

			out.Reset()
			rep, err = runTraced(w, 1, sz, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d of %d\n%s", rep.Correct, rep.Failed, rep.Attempted, out.String())
			}
			if len(rep.Metrics) != len(perLayer) {
				t.Fatalf("traced run reports %d of %d per-layer metrics", len(rep.Metrics), len(perLayer))
			}
		})
	}
}

// TestCheckScenarioRejectsInconsistentResults feeds checkScenario results
// that no correct run can produce and expects each to fail.
func TestCheckScenarioRejectsInconsistentResults(t *testing.T) {
	sz := sizing{seconds: 1, short: true}
	cfg, err := sppObserved(1, sz, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkScenario(cfg, res); err != nil {
		t.Fatalf("a real run fails the check: %v", err)
	}
	corrupt := map[string]func(r *experiments.RunResult){
		"delivered > sent × members": func(r *experiments.RunResult) {
			r.Summary.PacketsDelivered = r.Summary.PacketsSent*10 + 1
			r.Summary.DataBytesReceived = r.Summary.PacketsDelivered * uint64(cfg.PayloadBytes)
			r.Delay.Count = int(r.Summary.PacketsDelivered)
		},
		"member above its flow": func(r *experiments.RunResult) {
			r.PerMember = append(r.PerMember[:0:0], r.PerMember...)
			r.PerMember[0].PDR = 1.5
		},
		"too few packets sent":    func(r *experiments.RunResult) { r.Summary.PacketsSent /= 2 },
		"bytes without packets":   func(r *experiments.RunResult) { r.Summary.DataBytesReceived++ },
		"PDR not the member mean": func(r *experiments.RunResult) { r.Summary.PDR += 0.01 },
	}
	for name, mutate := range corrupt {
		bad := *res
		mutate(&bad)
		if err := checkScenario(cfg, &bad); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

// TestManifestMatchesFile pins BENCHMARK.json to the workload and metric
// tables it is generated from (regenerate with run.sh --manifest
// BENCHMARK.json).
func TestManifestMatchesFile(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it:\n%s", want)
	}
}

// TestQuartilesMatchPython compares with statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestSpanSelfTime: a span's self time is its duration minus what its
// children cover, counting overlapping children once.
func TestSpanSelfTime(t *testing.T) {
	r := &spanRecorder{spans: []benchSpan{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 50},
		{ID: 3, Parent: 1, Start: 15, End: 20},
	}}
	r.computeSelf()
	for id, want := range []int64{60, 25, 20, 5} {
		if got := r.spans[id].Self; got != want {
			t.Errorf("span %d self = %d, want %d", id, got, want)
		}
	}
}

// TestReachabilityTable recomputes, with topology.HopDistance over 250 m
// hops and apart from the simulator, how many members of each metro group
// are reachable from each source, and checks README.md's table says the
// same.
func TestReachabilityTable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	sz := sizing{seconds: runSeconds}
	for _, c := range []struct {
		name  string
		build func(uint64, sizing, int) (experiments.ScenarioConfig, error)
	}{{"metro-10k", metro10k}, {"metro-1k-mobile", metroMobile}} {
		cfg, err := c.build(1, sz, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range cfg.Groups {
			for _, src := range g.Sources {
				reach := 0
				for _, m := range g.Members {
					if cfg.Topology.HopDistance(src, m, 250) >= 0 {
						reach++
					}
				}
				line := fmt.Sprintf("| %s | %d | %d | %d of %d |", c.name, g.Group, src, reach, len(g.Members))
				if !strings.Contains(string(readme), line) {
					t.Errorf("README.md lacks the line %q", line)
				}
			}
		}
	}
}
