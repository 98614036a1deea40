package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{1, 100}, {19, 100}, // the median leaves fewer than ten beyond
		{20, 50}, {99, 50},
		{100, 90}, {999, 90},
		{1000, 99}, {9999, 99},
		{10000, 99.9}, {50000, 99.9},
	}
	for _, c := range cases {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
		if lvl := tailLevel(c.n); lvl < 100 && beyond(c.n, lvl) < 10 {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, lvl, beyond(c.n, lvl))
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if m := median(xs); m != 50 || xs[0] != 100 {
		t.Errorf("median = %v (input now starts %v), want 50 and the input left in order", m, xs[0])
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestSelfTimeSubtractsNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "dist.run", Start: 0, End: 100},
		// Two concurrent sends overlapping on [30,40]: their union covers
		// [10,60], 50 of the parent's 100.
		{ID: 2, Parent: 1, Name: "transport.send", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "transport.send", Start: 30, End: 60},
		// An encode nested inside the first send.
		{ID: 4, Parent: 2, Name: "wire.encode", Start: 15, End: 25},
		// A read that outlives its parent is clipped to the parent.
		{ID: 5, Parent: 1, Name: "wire.read", Start: 90, End: 120},
		{ID: 6, Name: "fleet.round", Start: 200, End: 230},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"dist":      100 - 50 - 10, // minus the sends' union and the clipped read
		"transport": (30 - 10) + 30,
		"wire":      10 + 30,
		"fleet":     30,
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self[%s] = %d, want %d", l, got[l], w)
		}
	}
}

func TestTracerFoldsOperationsAndNilIsUntraced(t *testing.T) {
	var off *tracer
	id, st := off.begin()
	off.end("fleet.round", id, 0, off.op(), st)
	off.finishOp()

	tr := newTracer()
	for i := 0; i < 3; i++ {
		op := tr.op()
		pid, ps := tr.begin()
		cid, cs := tr.begin()
		tr.end("wire.read", cid, pid, op, cs)
		tr.end("dist.run", pid, 0, op, ps)
		tr.finishOp()
	}
	if len(tr.kept) != 6 || len(tr.cur) != 0 {
		t.Fatalf("kept %d spans with %d pending, want 6 and 0", len(tr.kept), len(tr.cur))
	}
	self := tr.selfMs()
	if self["dist"] < 0 || self["wire"] < 0 {
		t.Errorf("negative self time: %v", self)
	}
}

func TestTallyFailedFrac(t *testing.T) {
	var a tally
	if a.frac() != 0 {
		t.Error("an empty tally has no failures")
	}
	for i := 0; i < 10; i++ {
		reason := ""
		if i%4 == 0 {
			reason = "infeasible"
		}
		a.record(reason)
	}
	if a.attempted != 10 || a.failed != 3 || a.frac() != 0.3 {
		t.Errorf("tally = %d/%d (%v), want 3/10", a.failed, a.attempted, a.frac())
	}
	var b tally
	for i := 0; i < 2*maxReasons; i++ {
		b.record("restore differs")
	}
	a.add(b)
	if a.attempted != 10+2*maxReasons || a.failed != 3+2*maxReasons {
		t.Errorf("merged tally = %d/%d", a.failed, a.attempted)
	}
	if len(a.reasons) != maxReasons {
		t.Errorf("kept %d reasons, want at most %d", len(a.reasons), maxReasons)
	}
}

var sink [][]byte

func TestPhasesAttributeAllocationToTheirOwnPhase(t *testing.T) {
	ph := newPhases()
	sink = make([][]byte, 0, 1000)
	for i := 0; i < 1000; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	ph.mark("setup")
	ph.mark("idle")
	for i := 0; i < 10; i++ {
		sink[i] = make([]byte, 64<<10)
	}
	ph.mark("run")

	setup, idle, run := ph.total["setup"], ph.total["idle"], ph.total["run"]
	if setup.Count < 1000 || setup.Bytes < 1000*1024 {
		t.Errorf("setup = %+v, want at least 1000 allocations of 1 KiB", setup)
	}
	if run.Count < 10 || run.Bytes < 10*64<<10 || run.Count > setup.Count {
		t.Errorf("run = %+v, want 10 allocations of 64 KiB", run)
	}
	// Reading the counters itself allocates nothing worth a phase.
	if idle.Bytes > 4<<10 {
		t.Errorf("idle phase charged %+v", idle)
	}
}

// BENCHMARK.json declares the metrics the benchmark prints; the two lists
// must name the same metrics with the same units, and the same workloads.
func TestBenchmarkJSONMatchesTheMetricsPrinted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: declared %s (%s), printed %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, allPerLayer())
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json declares unknown workload %q", w.Name)
		}
	}
}
