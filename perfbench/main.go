// Command perfbench is the system benchmark: it drives the real
// binaries from outside the way a user does — a worldgen corpus into
// `offnetmap -growth`, and `offnetd -genlog` on loopback under a
// single-process load generator — and, in a traced run, times the
// public calls into each layer in-process. See README.md for the
// workloads, the metrics and which layer metric should move which
// end-to-end metric.
//
// Usage (run.sh builds the binaries first):
//
//	perfbench -workload study|serve-reload -seed N -seconds S -trace 0|1 [-short]
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report
// the end-to-end metrics, traced runs the per-layer ones. A failed
// output check prints correct=false and exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// profile sizes one workload. Every workload runs the whole chain —
// corpus → offnetmap → footstore → offnetd under load — so every run
// reports every metric; the profile decides which stage dominates.
type profile struct {
	name string

	corpusScale float64 // worldgen -scale of the study corpus

	batch       int           // >0: traffic is POST /v1/batch bodies of this many IPs; else loadgen.DefaultMix GETs
	openRate    float64       // open-loop offered rate, requests/s
	reloadEvery time.Duration // >0: append a generation this often during the blocks; 0: time idle reloads after them
	pairs       int           // open-loop + closed-loop block pairs after each study in a run's cycle
}

// The offered load. batchSize is the batch of loadgen's
// BenchmarkServing/batch-256 variant. Each open-loop rate is an eighth
// of the closed-loop capacity for its traffic, measured on a full-scale
// store over loopback with two connections on a 2-CPU Xeon (2.1 GHz)
// VM: about 8,500 req/s for DefaultMix GETs and about batchCapacity
// batches/s. At an eighth, the server stays a quarter busy even when
// load from outside the benchmark halves its capacity, so the
// open-loop latency is mostly service time rather than queueing.
const (
	batchSize     = 256
	getCapacity   = 8500
	batchCapacity = 310
)

var profiles = []profile{
	{
		name:        "study",
		corpusScale: 0.005,
		openRate:    getCapacity / 8.0,
		pairs:       2,
	},
	{
		name:        "serve-reload",
		corpusScale: 0.002,
		batch:       batchSize,
		openRate:    batchCapacity / 8.0,
		reloadEvery: time.Second,
		pairs:       1,
	},
}

// shortProfile shrinks a workload for the bit-rot test: tiny corpus and
// store (see servedScale), the same stages and checks.
func shortProfile(p profile) profile {
	p.corpusScale = 0.002
	if p.reloadEvery > 0 {
		p.reloadEvery = 300 * time.Millisecond
	}
	return p
}

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	short     bool
	bin       string // directory holding worldgen, offnetmap and offnetd
	work      string // scratch directory for this run's files
	reference string // reference.json path
	updateRef bool
}

func main() {
	var cfg config
	var traceN int
	flag.StringVar(&cfg.workload, "workload", "study", "workload: study or serve-reload")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed: the traffic is a function of it; the simulated world is fixed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed part of the run")
	flag.IntVar(&traceN, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.BoolVar(&cfg.short, "short", false, "tiny corpus and store: all stages and checks in seconds")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory with the worldgen, offnetmap and offnetd binaries")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "directory for the run's generated files")
	flag.StringVar(&cfg.reference, "reference", "perfbench/reference.json", "the pinned study outputs, per corpus scale")
	flag.BoolVar(&cfg.updateRef, "update-reference", false, "record this run's study output as the reference for its corpus scale")
	flag.Parse()
	cfg.trace = traceN == 1

	r, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := r.result()
	r.report(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// Result is the benchmark's last line of output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload and returns what it measured and checked.
func execute(cfg config) (*run, error) {
	var prof *profile
	for i := range profiles {
		if profiles[i].name == cfg.workload {
			prof = &profiles[i]
		}
	}
	if prof == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	p := *prof
	if cfg.short {
		p = shortProfile(p)
	}
	for _, tool := range []string{"worldgen", "offnetmap", "offnetd"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, tool)); err != nil {
			return nil, fmt.Errorf("missing binary (build with run.sh): %w", err)
		}
	}
	runID := fmt.Sprintf("%s-seed%d-trace%t-%d", p.name, cfg.seed, cfg.trace, os.Getpid())
	dir := filepath.Join(cfg.work, runID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The run's inputs are large and regenerated every run; keep
	// only the result record and spans.
	defer os.RemoveAll(dir)

	// A stage that hangs must not hang the run: everything shares one
	// deadline, under three minutes.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	r := newRun(cfg, p, runID, dir)
	if err := r.execute(ctx); err != nil {
		return nil, err
	}
	return r, nil
}

// result is the run's last line: the end-to-end metrics, or in a traced
// run the per-layer ones.
func (r *run) result() *Result {
	res := &Result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]Metric{},
	}
	src := r.e2e
	if r.cfg.trace {
		src = r.layer
	}
	for name, m := range src {
		res.Metrics[name] = m
	}
	return res
}

// report prints the human-readable record — run context, failed checks
// and every metric, both sets — and saves it beside the spans.
func (r *run) report(res *Result) {
	fmt.Printf("context: %s\n", mustJSON(r.context))
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	for _, reason := range sortedKeys(r.failures) {
		fmt.Printf("failed operations: %s = %d\n", reason, r.failures[reason])
	}
	for _, set := range []struct {
		title string
		m     map[string]Metric
	}{{"end-to-end", r.e2e}, {"per-layer", r.layer}} {
		if len(set.m) == 0 {
			continue
		}
		fmt.Printf("%s metrics:\n", set.title)
		for _, name := range sortedKeys(set.m) {
			note := r.notes[name]
			if note != "" {
				note = "  (" + note + ")"
			}
			fmt.Printf("  %-36s %14.6g %s%s\n", name, set.m[name].Value, set.m[name].Unit, note)
		}
	}
	record := map[string]any{
		"context":   r.context,
		"result":    res,
		"e2e":       r.e2e,
		"per_layer": r.layer,
		"notes":     r.notes,
		"samples":   r.samples,
		"problems":  r.problems,
		"trace":     r.traceReport,
	}
	resultsDir := filepath.Join(filepath.Dir(r.dir), "..", "results")
	if err := os.MkdirAll(resultsDir, 0o755); err == nil {
		path := filepath.Join(resultsDir, r.runID+".json")
		if err := os.WriteFile(path, []byte(mustJSON(record)), 0o644); err == nil {
			fmt.Printf("wrote %s\n", path)
		}
		if r.tr != nil {
			path := filepath.Join(resultsDir, r.runID+".spans.json")
			if err := r.tr.writeJSON(path); err == nil {
				fmt.Printf("wrote %s (%d spans)\n", path, len(r.tr.Spans()))
			}
		}
	}
}

func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(data)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
