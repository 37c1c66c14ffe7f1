package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/recordmgr"
)

func tinyOptions() Options {
	return Options{Duration: 25 * time.Millisecond, MaxThreads: 2, Quick: true, Seed: 7}
}

func TestRunTrialBSTAllSchemes(t *testing.T) {
	for _, scheme := range SupportedSchemes(DSBST) {
		t.Run(scheme, func(t *testing.T) {
			res, err := RunTrial(Config{
				DataStructure: DSBST,
				Scheme:        scheme,
				Threads:       2,
				Duration:      30 * time.Millisecond,
				Workload:      withRange(MixUpdateHeavy, 1024),
				Allocator:     recordmgr.AllocBump,
				UsePool:       true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 || res.Throughput <= 0 {
				t.Fatalf("no work performed: %+v", res)
			}
			if res.AllocatedRecords == 0 {
				t.Fatal("no records allocated")
			}
			if scheme != recordmgr.SchemeNone && res.Reclaimer.Retired == 0 {
				t.Fatal("nothing retired during an update-heavy trial")
			}
		})
	}
}

func TestRunTrialSkipListSchemes(t *testing.T) {
	for _, scheme := range SupportedSchemes(DSSkipList) {
		res, err := RunTrial(Config{
			DataStructure: DSSkipList,
			Scheme:        scheme,
			Threads:       2,
			Duration:      30 * time.Millisecond,
			Workload:      withRange(MixReadHeavy, 1024),
			Allocator:     recordmgr.AllocBump,
			UsePool:       true,
		})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if res.Ops == 0 {
			t.Fatalf("%s: no operations", scheme)
		}
	}
}

func TestRunTrialValidation(t *testing.T) {
	if _, err := RunTrial(Config{DataStructure: DSBST, Threads: 0, Workload: withRange(MixUpdateHeavy, 10)}); err == nil {
		t.Fatal("expected error for zero threads")
	}
	if _, err := RunTrial(Config{DataStructure: DSBST, Scheme: "debra", Threads: 1, Workload: Workload{}}); err == nil {
		t.Fatal("expected error for zero key range")
	}
	if _, err := RunTrial(Config{DataStructure: "btree", Scheme: "debra", Threads: 1, Workload: withRange(MixUpdateHeavy, 10)}); err == nil {
		t.Fatal("expected error for unknown data structure")
	}
	if _, err := RunTrial(Config{DataStructure: DSBST, Scheme: "bogus", Threads: 1, Workload: withRange(MixUpdateHeavy, 10)}); err == nil {
		t.Fatal("expected error for unknown scheme")
	}
}

func TestExperimentPanels(t *testing.T) {
	for _, exp := range []int{Experiment1, Experiment2, Experiment3} {
		panels, err := ExperimentPanels(exp, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(panels) != 6 {
			t.Fatalf("experiment %d: %d panels, want 6 (3 shapes x 2 mixes)", exp, len(panels))
		}
		for _, p := range panels {
			if len(p.Schemes) == 0 || len(p.Threads) == 0 {
				t.Fatalf("panel %q missing schemes or threads", p.Title)
			}
			if p.DataStructure == DSSkipList {
				for _, s := range p.Schemes {
					if s == recordmgr.SchemeDEBRAPlus {
						t.Fatal("skip list panel must not include DEBRA+")
					}
				}
			}
		}
	}
	if _, err := ExperimentPanels(99, DefaultOptions()); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestRunPanelAndRendering(t *testing.T) {
	opts := tinyOptions()
	p := Panel{
		Figure:        "smoke",
		Title:         "bst tiny",
		DataStructure: DSBST,
		Workload:      withRange(MixUpdateHeavy, 512),
		Allocator:     recordmgr.AllocBump,
		UsePool:       true,
		Schemes:       []string{recordmgr.SchemeNone, recordmgr.SchemeDEBRA, recordmgr.SchemeDEBRAPlus, recordmgr.SchemeHP},
		Threads:       []int{1, 2},
	}
	pr := RunPanel(p, opts)
	if len(pr.Errors) != 0 {
		t.Fatalf("panel errors: %v", pr.Errors)
	}
	table := RenderThroughputTable(pr)
	for _, want := range []string{"threads", "debra", "debra+", "hp", "none", "bst tiny"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	csv := RenderCSV(pr, true)
	if !strings.HasPrefix(csv, "figure,title,scheme,threads,") {
		t.Fatalf("csv missing header:\n%s", csv)
	}
	if got := strings.Count(csv, "\n"); got != 1+len(p.Schemes)*len(p.Threads) {
		t.Fatalf("csv has %d lines", got)
	}
	summary := Summarize([]PanelResult{pr})
	if summary.Samples == 0 || summary.DebraVsNone <= 0 || summary.DebraVsHP <= 0 {
		t.Fatalf("summary not computed: %+v", summary)
	}
	if out := RenderSummary(summary); !strings.Contains(out, "DEBRA+ vs HP") {
		t.Fatalf("summary rendering incomplete:\n%s", out)
	}
}

func TestMemoryExperiment(t *testing.T) {
	rows, schemes, err := MemoryExperiment(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(schemes) != 3 {
		t.Fatalf("rows=%d schemes=%v", len(rows), schemes)
	}
	for _, row := range rows {
		for _, s := range schemes {
			if row.Bytes[s] <= 0 {
				t.Fatalf("scheme %s at %d threads reported %d bytes", s, row.Threads, row.Bytes[s])
			}
		}
	}
	out := RenderMemoryTable(rows, schemes)
	if !strings.Contains(out, "Figure 9") || !strings.Contains(out, "neutralizations") || !strings.Contains(out, DSBST) {
		t.Fatalf("memory table incomplete:\n%s", out)
	}
}

func TestDefaultThreadCounts(t *testing.T) {
	got := DefaultThreadCounts(8)
	want := []int{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if got := DefaultThreadCounts(6); got[len(got)-1] != 6 {
		t.Fatalf("max thread count not included: %v", got)
	}
	if got := DefaultThreadCounts(0); len(got) == 0 {
		t.Fatal("empty sweep for default max")
	}
}

func TestWorkloadString(t *testing.T) {
	w := withRange(MixReadHeavy, 100)
	if s := w.String(); !strings.Contains(s, "25i-25d-50s") || !strings.Contains(s, "100") {
		t.Fatalf("unexpected workload string %q", s)
	}
}

// TestRunExperimentQuick runs every experiment reclaimbench offers end to end
// under tinyOptions: the throughput panels of experiments 1–3, the fault
// probe and the memory footprint. A failed cell fails the test.
func TestRunExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-panel experiments in -short mode")
	}
	opts := tinyOptions()
	for _, exp := range []struct {
		name string
		id   int
	}{{"1", Experiment1}, {"2", Experiment2}, {"3", Experiment3}, {"faults", ExperimentFaults}} {
		t.Run(exp.name, func(t *testing.T) {
			results, err := RunExperiment(exp.id, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) == 0 {
				t.Fatal("experiment has no panels")
			}
			for _, pr := range results {
				if len(pr.Errors) != 0 {
					t.Fatalf("panel %q errors: %v", pr.Panel.Title, pr.Errors)
				}
			}
		})
	}
	t.Run("memory", func(t *testing.T) {
		if _, _, err := MemoryExperiment(opts); err != nil {
			t.Fatal(err)
		}
	})
}
