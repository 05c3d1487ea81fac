package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSteady runs every workload rounds times, each run in its own process
// with the next seed, alternating the workload order between rounds. It
// prints each end-to-end metric's median, quartiles and spread (interquartile
// range over median) against the metric's bound, and each workload's share of
// failed operations.
func runSteady(rounds int, seed uint64, seconds int, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{}
	failShares := map[string][]float64{}
	for r := 0; r < rounds; r++ {
		order := append([]*workload(nil), workloads...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			args := []string{"--workload", w.name, "--seed", strconv.FormatUint(seed+uint64(r), 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0"}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s round %d: %w", w.name, r, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var rep report
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
				return fmt.Errorf("%s round %d: result line: %w", w.name, r, err)
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			line := fmt.Sprintf("# round %d seed %d %-16s correct=%v attempted=%d failed=%d", r, seed+uint64(r), w.name, rep.Correct, rep.Attempted, rep.Failed)
			for _, d := range endToEnd {
				v := rep.Metrics[d.Name].Value
				values[w.name][d.Name] = append(values[w.name][d.Name], v)
				line += fmt.Sprintf(" %s=%.4g", d.Name, v)
			}
			fmt.Fprintln(stdout, line)
			failShares[w.name] = append(failShares[w.name], float64(rep.Failed)/float64(rep.Attempted))
		}
	}
	fmt.Fprintf(stdout, "%-16s %-14s %12s %12s %12s %8s %6s %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "steady")
	for _, w := range workloads {
		for _, d := range endToEnd {
			q1, med, q3 := quartiles(values[w.name][d.Name])
			spread := (q3 - q1) / med
			fmt.Fprintf(stdout, "%-16s %-14s %12.6g %12.6g %12.6g %8.4f %6.2f %v\n",
				w.name, d.Name, q1, med, q3, spread, d.Bound, spread < d.Bound/3)
		}
		fs := failShares[w.name]
		sort.Float64s(fs)
		fmt.Fprintf(stdout, "%-16s failed share min %.4f max %.4f\n", w.name, fs[0], fs[len(fs)-1])
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
