package main

import (
	"fmt"
	"math/bits"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// epoch is the zero of every timestamp the benchmark takes.
var epoch = time.Now()

// now returns monotonic nanoseconds since the process started measuring.
func now() int64 { return int64(time.Since(epoch)) }

// hist is a log-linear histogram of nanosecond durations: 128 linear buckets
// per power of two, so a quantile read from it is within 0.8 % of the sample
// it stands for (internal/kvload's histogram has 32, i.e. 3 % — coarser than
// the 10 % bounds can afford once a median sits on a bucket edge).
type hist struct {
	counts [histBuckets]uint32
	n      int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits) << histSubBits
)

func (h *hist) add(ns int64) {
	u := uint64(max(ns, 0))
	b := int(u)
	if u >= histSub {
		exp := bits.Len64(u) - histSubBits - 1
		b = exp<<histSubBits + int(u>>exp)
	}
	h.counts[b]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the midpoint of the bucket holding the q-quantile, in ns.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n-1)) + 1
	var seen int64
	for i, c := range h.counts {
		seen += int64(c)
		if seen >= rank {
			if i < histSub {
				return float64(i)
			}
			exp := i>>histSubBits - 1
			lower := int64(histSub+i&(histSub-1)) << exp
			return float64(lower) + float64(int64(1)<<exp)/2
		}
	}
	return 0
}

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// cpuNs returns the process's user+system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// rssMiB reads the process's resident set from procfs.
func rssMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm: %q", data)
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, fmt.Errorf("parse /proc/self/statm %q: %w", data, err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// loadAvg1 returns the 1-minute load average, or -1 when procfs has none.
func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// segment is the raw record of one measured segment: a fixed number of
// operations per worker, workers meeting at a barrier on both sides.
type segment struct {
	Ops    int64   `json:"ops"`
	WallNs int64   `json:"wall_ns"`
	CPUNs  int64   `json:"cpu_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P90Ns  float64 `json:"p90_ns"`
	P99Ns  float64 `json:"p99_ns"`
	Lat    int64   `json:"latency_samples"`
	RSSMiB float64 `json:"rss_mib"` // resident set at the segment's end barrier
	Build  int     `json:"build"`
}

// runSegments drives every worker through n segments of ops operations each.
// The barrier between segments is the WaitGroup: a segment's wall time runs
// from the common start to the slowest worker's finish.
func runSegments(t *target, n, ops int) ([]segment, error) {
	segs := make([]segment, 0, n)
	var merged hist
	for i := 0; i < n; i++ {
		for _, w := range t.workers {
			w.state().lat.reset()
		}
		cpu0, t0 := cpuNs(), now()
		runAll(t, ops)
		wall, cpu := now()-t0, cpuNs()-cpu0
		rss, err := rssMiB()
		if err != nil {
			return nil, err
		}
		merged.reset()
		for _, w := range t.workers {
			merged.merge(&w.state().lat)
		}
		segs = append(segs, segment{
			Ops: int64(ops * len(t.workers)), WallNs: wall, CPUNs: cpu,
			P50Ns: merged.quantile(0.50), P90Ns: merged.quantile(0.90), P99Ns: merged.quantile(0.99),
			Lat: merged.n, RSSMiB: rss,
		})
	}
	return segs, nil
}

// runAll runs ops operations on every worker concurrently and waits for all.
func runAll(t *target, ops int) {
	var wg sync.WaitGroup
	for _, w := range t.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(ops)
		}()
	}
	wg.Wait()
}

// timings are the medians over a run's segments.
type timings struct {
	opsPerS, cpuUsPerOp, p50Us, p90Us, p99Us float64
	rssPeakMiB                               float64 // the largest resident set seen at a barrier
}

func summarize(segs []segment) timings {
	var rate, cpu, p50, p90, p99 []float64
	for _, s := range segs {
		rate = append(rate, float64(s.Ops)/(float64(s.WallNs)/1e9))
		cpu = append(cpu, float64(s.CPUNs)/1e3/float64(s.Ops))
		p50 = append(p50, s.P50Ns/1e3)
		p90 = append(p90, s.P90Ns/1e3)
		p99 = append(p99, s.P99Ns/1e3)
	}
	t := timings{opsPerS: median(rate), cpuUsPerOp: median(cpu), p50Us: median(p50), p90Us: median(p90), p99Us: median(p99)}
	for _, s := range segs {
		t.rssPeakMiB = max(t.rssPeakMiB, s.RSSMiB)
	}
	return t
}
