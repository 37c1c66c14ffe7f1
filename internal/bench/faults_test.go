package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/raceenabled"
	"repro/internal/recordmgr"
)

func TestFaultPanels(t *testing.T) {
	opts := Options{Quick: true, MaxThreads: 4, Duration: 50 * time.Millisecond}
	panels := FaultPanels(opts)
	if len(panels) != len(FaultStallSweep) {
		t.Fatalf("got %d panels, want one per stall count %v", len(panels), FaultStallSweep)
	}
	for _, p := range panels {
		if p.DataStructure != DSFaultProbe {
			t.Fatalf("unexpected panel data structure %q", p.DataStructure)
		}
		if p.StallThreads < 1 {
			t.Fatalf("probe panel %q has StallThreads=%d", p.Title, p.StallThreads)
		}
		for _, th := range p.Threads {
			if th <= p.StallThreads {
				t.Fatalf("probe panel %q has thread row %d <= StallThreads %d (no live worker)",
					p.Title, th, p.StallThreads)
			}
		}
	}
}

func TestRunFaultProbeTrial(t *testing.T) {
	base := Config{
		DataStructure: DSFaultProbe,
		Threads:       4,
		StallThreads:  1,
		Duration:      50 * time.Millisecond,
		Workload:      Workload{InsertPct: 50, DeletePct: 50, KeyRange: 1},
		UsePool:       true,
		Seed:          1,
	}
	cases := []struct {
		scheme  string
		bounded bool
	}{
		{recordmgr.SchemeEBR, false},
		{recordmgr.SchemeHP, true},
		{recordmgr.SchemeDEBRAPlus, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.scheme, func(t *testing.T) {
			if tc.scheme == recordmgr.SchemeDEBRAPlus && raceenabled.Enabled {
				t.Skip("DEBRA+ degrades to DEBRA under -race (neutralization disabled)")
			}
			cfg := base
			cfg.Scheme = tc.scheme
			res, err := RunTrial(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.FaultStalled != 1 {
				t.Fatalf("FaultStalled = %d, want 1", res.FaultStalled)
			}
			if res.FaultBounded != tc.bounded {
				t.Fatalf("%s bounded=%v (delta %.3f), want %v",
					tc.scheme, res.FaultBounded, res.FaultSlopeDelta, tc.bounded)
			}
			if res.Ops == 0 {
				t.Fatal("probe trial reported zero operations")
			}
		})
	}

	cfg := base
	cfg.Scheme = recordmgr.SchemeEBR
	cfg.Threads = 1
	if _, err := RunTrial(cfg); err == nil {
		t.Fatal("probe trial with no live worker (Threads == StallThreads) did not error")
	}
}

// TestRenderFaults: one verdict row per (stall count, scheme, thread count)
// cell, with the unbounded schemes flagged.
func TestRenderFaults(t *testing.T) {
	cell := func(bounded bool, delta float64) Result {
		return Result{FaultBounded: bounded, FaultSlopeDelta: delta, FaultMaxUnreclaimed: 4000}
	}
	var results []PanelResult
	for _, stall := range []int{1, 2} {
		results = append(results, PanelResult{
			Panel: Panel{StallThreads: stall, Schemes: []string{recordmgr.SchemeEBR, recordmgr.SchemeHP}, Threads: []int{3, 4}},
			Results: map[string]map[int]Result{
				recordmgr.SchemeEBR: {3: cell(false, 0.98), 4: cell(false, 0.97)},
				recordmgr.SchemeHP:  {3: cell(true, 0.01), 4: cell(true, 0)},
			},
		})
	}
	out := RenderFaults(results)
	var rows, unbounded int
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 6 || f[0] == "stalls" {
			continue
		}
		rows++
		if f[5] == "UNBOUNDED" {
			unbounded++
			if f[1] != recordmgr.SchemeEBR {
				t.Fatalf("%s rendered UNBOUNDED:\n%s", f[1], out)
			}
		}
	}
	if rows != 2*2*2 {
		t.Fatalf("got %d verdict rows, want 8 (2 stalls x 2 schemes x 2 thread counts):\n%s", rows, out)
	}
	if unbounded != 4 {
		t.Fatalf("got %d UNBOUNDED rows, want 4 (every ebr cell):\n%s", unbounded, out)
	}
}
