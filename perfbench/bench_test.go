package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// TestShortWorkloads runs every workload in short mode — tiny corpus and
// store, sub-second phases, every stage and every output check — as a
// traced run, which measures the end-to-end metrics too. It fails on
// any failed check or operation, and when the metric names a run
// reports drift from BENCHMARK.json.
func TestShortWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs three workloads (~1 min)")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"offnetscope/cmd/worldgen", "offnetscope/cmd/offnetmap", "offnetscope/cmd/offnetd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the binaries: %v\n%s", err, out)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(profiles) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(profiles))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			r, err := execute(config{
				workload: w.Name, seed: defaultSeed, seconds: 1, trace: true, short: true,
				bin: bin, work: t.TempDir(), reference: "reference.json",
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range r.problems {
				t.Errorf("check failed: %s", p)
			}
			if r.failed > 0 || r.attempted == 0 {
				t.Errorf("%d of %d operations failed: %v", r.failed, r.attempted, r.failures)
			}
			for _, set := range []struct {
				name string
				got  map[string]Metric
				want []struct{ Name, Unit string }
			}{{"end_to_end", r.e2e, spec.EndToEnd}, {"per_layer", r.layer, spec.PerLayer}} {
				want := map[string]string{}
				for _, m := range set.want {
					want[m.Name] = m.Unit
				}
				for name, m := range set.got {
					if unit, ok := want[name]; !ok || unit != m.Unit {
						t.Errorf("%s: reported %s [%s], BENCHMARK.json has [%s]", set.name, name, m.Unit, unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: %s = %v", set.name, name, m.Value)
					}
				}
				for name := range want {
					if _, ok := set.got[name]; !ok {
						t.Errorf("%s: %s listed in BENCHMARK.json but not reported", set.name, name)
					}
				}
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	// main: root [0,100] with A [10,40] and B [50,90], B holding C
	// [60,70]; P [0,100] is a pool parent whose two spans ran on two
	// workers, one of them with a child.
	spans := []Span{
		{ID: 1, Lane: "main", Name: "bench.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Lane: "main", Name: "corpus.a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Lane: "main", Name: "core.b", Start: 50, End: 90},
		{ID: 4, Parent: 3, Lane: "main", Name: "bgpsim.c", Start: 60, End: 70},
		{ID: 5, Lane: "side", Name: "bench.side", Start: 0, End: 100},
		{ID: 6, Parent: 5, Lane: "side", Name: "core.study", Start: 0, End: 100},
		{ID: 7, Parent: 6, Lane: poolLane, Name: "core.snapshot", Start: 0, End: 60},
		{ID: 8, Parent: 6, Lane: poolLane, Name: "core.snapshot", Start: 5, End: 95},
		{ID: 9, Parent: 7, Lane: poolLane, Name: "corpus.certs", Start: 10, End: 30},
		{ID: 10, Parent: 6, Lane: poolLane, Name: "core.snapshot", Start: 62, End: 90}, // worker 1 again
	}
	rep := analyze(spans, 2)
	lanes := map[string]LaneReport{}
	for _, l := range rep.Lanes {
		lanes[l.Lane] = l
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if l := lanes["main"]; !near(l.WallS, 100e-9) || !near(l.UncoveredS, 30e-9) || !near(l.LayerSelfS, 70e-9) {
		t.Errorf("main lane %+v", l)
	}
	// Worker 1 ran [0,60] and [62,90]: idle 2 + 10 of its 100.
	if l := lanes["worker-1"]; !near(l.UncoveredS, 12e-9) {
		t.Errorf("worker-1 %+v", l)
	}
	if l := lanes["worker-2"]; !near(l.UncoveredS, 10e-9) {
		t.Errorf("worker-2 %+v", l)
	}
	// core self: B 30 on main + snapshots 40 + 90 + 28 on the workers;
	// the pool parent's own time is the workers' to account for.
	if got := rep.SelfS["core"]; !near(got, (30+40+90+28)*1e-9) {
		t.Errorf("core self %v", got)
	}
	if got := rep.SelfS["corpus"]; !near(got, 50e-9) {
		t.Errorf("corpus self %v", got)
	}
	for _, l := range rep.Lanes {
		if !near(l.LayerSelfS+l.UncoveredS, l.WallS) {
			t.Errorf("lane %s: self times %v + %v do not add up to wall %v", l.Lane, l.LayerSelfS, l.UncoveredS, l.WallS)
		}
	}
}

func TestConcurrentSiblingsShareTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Lane: "main", Name: "bench.run", Start: 0, End: 10},
		{ID: 2, Parent: 1, Lane: "main", Name: "corpus.x", Start: 0, End: 10},
		{ID: 3, Parent: 1, Lane: "main", Name: "core.y", Start: 0, End: 10},
	}
	rep := analyze(spans, 1)
	if rep.SelfS["corpus"] != 5e-9 || rep.SelfS["core"] != 5e-9 {
		t.Errorf("overlapping siblings: %v", rep.SelfS)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 6, 8, 7, 10, 9}
	sort.Float64s(v)
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.99, 10}, {0.1, 1}, {0.11, 2}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{1, 2, math.Inf(1)}, 0.99); !math.IsInf(got, 1) {
		t.Errorf("a failed request must count past any limit, got %v", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

func TestCleanMedian(t *testing.T) {
	for _, c := range []struct {
		values, steal []float64
		want          float64
		used          int
	}{
		{[]float64{1, 2, 100, 3}, []float64{0, 0.01, 0.2, 0.03}, 2, 3},
		{[]float64{1, 5}, []float64{0.1, 0.2}, 3, 2},
		{[]float64{4}, []float64{stealLimit}, 4, 1},
	} {
		got, used := cleanMedian(c.values, c.steal)
		if got != c.want || used != c.used {
			t.Errorf("cleanMedian(%v, %v) = %v over %d, want %v over %d", c.values, c.steal, got, used, c.want, c.used)
		}
	}
}

func TestGenerationOf(t *testing.T) {
	for body, want := range map[string]uint64{
		"{\n  \"asns\": [1],\n  \"generation\": 17,\n  \"ip\": \"1.2.3.4\"\n}": 17,
		`{"error": "bad"}`:            0,
		"{\n  \"generation\": 3\n}\n": 3,
	} {
		if got := generationOf([]byte(body)); got != want {
			t.Errorf("generationOf(%q) = %d, want %d", body, got, want)
		}
	}
}
