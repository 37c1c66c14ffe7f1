package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runChild runs one workload in a fresh process — so rss_peak_mb is that
// workload's own — and parses the result object from its last line. The
// child's output goes to echo as it comes.
func runChild(s *spec, seed uint64, seconds, trace int, echo io.Writer) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe, "-workload", s.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	if err := cmd.Start(); err != nil {
		return res, err
	}
	last := ""
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		fmt.Fprintln(echo, last)
	}
	waitErr := cmd.Wait()
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("%s: no result line (%v; exit: %v)", s.name, err, waitErr)
	}
	if waitErr != nil {
		return res, fmt.Errorf("%s: %w", s.name, waitErr)
	}
	return res, nil
}

// runSuite runs every workload once and returns the exit code.
func runSuite(seed uint64, seconds, trace int) int {
	code := 0
	for _, s := range workloads {
		if _, err := runChild(s, seed, seconds, trace, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			code = 1
		}
	}
	return code
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the exclusive method) — the driver computes its spreads with it.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// contract is the part of BENCHMARK.json the calibration checks itself
// against.
type contract struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCalibrate runs the end-to-end suite n times, run i with seed+i, as two
// interleaved sets (A B A B …), and prints per workload and metric the
// spread of all runs and the gap between the two sets' medians. A bound in
// BENCHMARK.json must be at least 1.5 × the relative interquartile range and
// larger than the gap; the exit code says whether all are.
func runCalibrate(n int, seed uint64, seconds int) int {
	if n < 10 {
		fmt.Fprintln(os.Stderr, "benchmark: -calibrate needs at least 10 runs")
		return 2
	}
	var c contract
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &c)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -calibrate runs from the repository root: %v\n", err)
		return 2
	}
	bounds := map[string]float64{}
	for _, m := range c.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	// values[workload][metric][set] are the runs' values.
	values := map[string]map[string]*[2][]float64{}
	for i := 0; i < n; i++ {
		for _, s := range workloads {
			res, err := runChild(s, seed+uint64(i), seconds, 0, io.Discard)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "calibrate: run %d/%d set %c %s ok\n", i+1, n, 'A'+i%2, s.name)
			if values[s.name] == nil {
				values[s.name] = map[string]*[2][]float64{}
			}
			for name, m := range res.Metrics {
				if values[s.name][name] == nil {
					values[s.name][name] = new([2][]float64)
				}
				values[s.name][name][i%2] = append(values[s.name][name][i%2], m.Value)
			}
		}
	}
	code := 0
	fmt.Printf("| workload | metric | unit | median | q1 | q3 | rel. IQR | set A median | set B median | A-B gap | bound | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, s := range workloads {
		for _, d := range endToEnd {
			sets := values[s.name][d[0]]
			q1, q2, q3 := quartiles(append(append([]float64(nil), sets[0]...), sets[1]...))
			a, b := median(sets[0]), median(sets[1])
			iqr, gap := (q3-q1)/q2, math.Abs(a-b)/a
			bound, verdict := bounds[d[0]], "ok"
			if bound < 1.5*iqr || gap > bound {
				verdict, code = "TOO NOISY", 1
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %.6g | %.2f%% | %.6g | %.6g | %.2f%% | %.0f%% | %s |\n",
				s.name, d[0], d[1], q2, q1, q3, 100*iqr, a, b, 100*gap, 100*bound, verdict)
		}
	}
	return code
}
