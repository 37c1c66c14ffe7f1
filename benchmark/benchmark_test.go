package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"

	"repro/internal/kvwire"
)

// small returns s cut down so a test runs it in milliseconds.
func small(s *spec) *spec {
	c := *s
	c.keys = min(c.keys, 1<<12)
	c.segOps, c.warmOps = 6400, 3200
	return &c
}

// streamBytes is worker w's first n operations as wire frames: the byte
// stream the program would be fed.
func streamBytes(s *spec, seed uint64, w, n int) []byte {
	g := newGen(s, seed, w)
	var val [valueLen]byte
	var out []byte
	for _, o := range g.prefillOps(s, seed, w) {
		out = appendRequest(out, o, &val)
	}
	for i := 0; i < n; i++ {
		out = appendRequest(out, g.next(), &val)
	}
	return out
}

func TestStreamIsAFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, s := range workloads {
		s := small(s)
		for w := 0; w < s.workers; w++ {
			a, b := streamBytes(s, 7, w, 5000), streamBytes(s, 7, w, 5000)
			if !bytes.Equal(a, b) {
				t.Errorf("%s worker %d: same seed gave different streams", s.name, w)
			}
			if c := streamBytes(s, 8, w, 5000); bytes.Equal(a, c) {
				t.Errorf("%s worker %d: seeds 7 and 8 gave the same stream", s.name, w)
			}
		}
	}
}

func TestWorkersOwnDisjointKeys(t *testing.T) {
	for _, s := range workloads {
		s := small(s)
		for w := 0; w < s.workers; w++ {
			g := newGen(s, 3, w)
			ops := g.prefillOps(s, 3, w)
			for i := 0; i < 5000; i++ {
				ops = append(ops, g.next())
			}
			for _, o := range ops {
				if o.key < 0 || o.key >= s.keys || o.key%int64(s.workers) != int64(w) {
					t.Fatalf("%s worker %d generated key %d, not its own", s.name, w, o.key)
				}
			}
		}
	}
}

func TestMixMatchesSpec(t *testing.T) {
	for _, s := range workloads {
		g := newGen(small(s), 1, 0)
		var n [3]int
		const total = 100_000
		for i := 0; i < total; i++ {
			n[g.next().kind]++
		}
		want := [3]int{s.readPct, s.putPct, 100 - s.readPct - s.putPct}
		for k := range n {
			if got := 100 * float64(n[k]) / total; math.Abs(got-float64(want[k])) > 1 {
				t.Errorf("%s: kind %d is %.1f%% of the stream, spec says %d%%", s.name, k, got, want[k])
			}
		}
	}
}

// layerCounts runs a cut-down workload and returns its allocation and
// retirement counts per thousand operations.
func layerCounts(t *testing.T, s *spec, seed uint64) (allocated, retired float64) {
	t.Helper()
	tg, err := setup(s, seed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := measure(tg, 2)
	var out outcome
	out.absorb(tg, errors.Join(err, tg.finish()))
	if !out.correct() {
		t.Fatalf("%s: run not correct: %+v", s.name, out)
	}
	kops := float64(m.sum.ops) / 1e3
	return float64(m.delta.Fresh+m.delta.Reused) / kops, float64(m.delta.Retired) / kops
}

// TestLayerCountsRepeat: a single client's counts are a pure function of
// (workload, seed). With two clients the allocation count still is; the
// retirement count of a window moves by a fraction of a percent, because a
// bst descriptor is retired by whichever later operation replaces it.
func TestLayerCountsRepeat(t *testing.T) {
	for _, s := range workloads {
		s := small(s)
		a1, r1 := layerCounts(t, s, 5)
		a2, r2 := layerCounts(t, s, 5)
		tolerance := 0.0
		if s.workers > 1 {
			tolerance = 0.02
		}
		if math.Abs(a1-a2) > tolerance*a1 || math.Abs(r1-r2) > tolerance*r1 {
			t.Errorf("%s: same seed, allocated/kop %v vs %v, retired/kop %v vs %v", s.name, a1, a2, r1, r2)
		}
		if r1 == 0 {
			t.Errorf("%s: nothing retired; the workload does not reach reclamation", s.name)
		}
	}
}

// The verifier must fail when it should: each case below is a fault the
// benchmark has to notice.

func TestVerifierCatchesCorruptedResponse(t *testing.T) {
	var tl tally
	var val [valueLen]byte
	o := op{kind: opRead, key: 42, want: 9}
	good := kvwire.Response{Status: kvwire.StatusOK, Body: appendValue(nil, 42, 9)}
	checkResponse(&tl, &val, o, good)
	if tl.failed != 0 {
		t.Fatal("a correct response was counted as failed")
	}
	bad := kvwire.Response{Status: kvwire.StatusOK, Body: appendValue(nil, 42, 9)}
	bad.Body[15] ^= 1
	checkResponse(&tl, &val, o, bad)
	checkResponse(&tl, &val, o, kvwire.Response{Status: kvwire.StatusNotFound})
	checkResponse(&tl, &val, op{kind: opDel, key: 42, want: 9}, kvwire.Response{Status: kvwire.StatusOK, Body: []byte{0}})
	if tl.failed != 3 {
		t.Fatalf("3 wrong responses, %d counted", tl.failed)
	}
}

func TestVerifierCountsBusyAsUnverified(t *testing.T) {
	s := small(findWorkload("svc_lockstep_read"))
	tg, err := build(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := tg.workers[0].(*svcWorker)
	checkResponse(&w.tally, &w.val, op{kind: opRead, key: 0}, kvwire.Response{Status: kvwire.StatusBusy})
	var out outcome
	out.absorb(tg, tg.finish())
	if out.failed != 1 || out.correct() {
		t.Fatalf("one BUSY reply: failed=%d correct=%v", out.failed, out.correct())
	}
}

func TestVerifierCatchesModelMismatch(t *testing.T) {
	for _, name := range []string{"bst_update_heavy", "map_read_mostly"} {
		tg, err := build(small(findWorkload(name)), 1)
		if err != nil {
			t.Fatal(err)
		}
		w := tg.workers[0].(*localWorker)
		// A read whose expectation the structure does not meet.
		if w.apply(op{kind: opRead, key: w.g.offset, want: w.g.model[0] ^ 1}) {
			t.Errorf("%s: a read that contradicts the model passed", name)
		}
		// Break the model behind the structure's back: the final comparison
		// must see it.
		for u := range w.g.model {
			if w.g.model[u] == 0 {
				w.g.model[u] = 1
				break
			}
		}
		if err := tg.finish(); err == nil {
			t.Errorf("%s: final contents differ from the model, finish said nothing", name)
		}
	}
}

func TestVerifierCatchesUndrainedShutdown(t *testing.T) {
	s := small(findWorkload("bst_update_heavy"))
	tg, err := setup(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Before Close the limbo bags hold records: Retired != Freed, which is
	// what a leaking shutdown would leave behind.
	if err := checkDrained(s.name, tg.counters()); err == nil {
		t.Fatal("retired != freed went unnoticed")
	}
	var out outcome
	out.absorb(tg, checkDrained(s.name, tg.counters()))
	if out.correct() {
		t.Fatal("a run with an undrained shutdown counts as correct")
	}
	if err := tg.finish(); err != nil {
		t.Fatalf("the real shutdown drains: %v", err)
	}
}

func TestTracedRunYieldsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the replay and every probe")
	}
	dir := t.TempDir()
	t.Chdir(dir)
	s := small(findWorkload("svc_pipelined_churn"))
	metrics, rec, out := runTraced(s, 1, 1)
	if !out.correct() {
		t.Fatalf("traced run not correct: %+v", out)
	}
	for _, d := range perLayer {
		if _, ok := metrics[d[0]]; !ok {
			t.Errorf("no value for %s", d[0])
		}
	}
	for _, name := range replayLayers {
		if rec.Spans[name].Spans == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
	if fi, err := os.Stat(rec.SpanFile); err != nil || fi.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := newRecorder(0)
	p := r.add("root", 0, 100, -1, 1, 4)
	r.add("a", 10, 40, p, 1, 4)
	r.add("b", 40, 90, p, 1, 4)
	got := selfTimes(r)
	if got["root"].SelfNs != 20 || got["a"].SelfNs != 30 || got["b"].SelfNs != 50 {
		t.Fatalf("self times %+v", got)
	}
}

func TestHistogramResolution(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100_000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.008 {
			t.Errorf("q%.2f = %.0f, want %.0f within 0.8%%", q, got, want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v", q1, q2, q3)
	}
}

// TestContractMatchesCode keeps BENCHMARK.json and the names the code prints
// from drifting apart.
func TestContractMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, code %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want [][2]string) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i][0] || m.Unit != want[i][1] {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, m.Name, m.Unit, want[i][0], want[i][1])
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd)
	check("per_layer", c.PerLayer, perLayer)
}
