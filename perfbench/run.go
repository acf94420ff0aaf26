package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"offnetscope/internal/footstore"
	"offnetscope/internal/worldsim"
)

// run is one benchmark invocation's state: what it measured, what it
// checked, and the trace when one is recorded.
type run struct {
	cfg   config
	prof  profile
	runID string
	dir   string

	tr   *Tracer // nil in an untraced run
	root ref

	e2e, layer map[string]Metric
	notes      map[string]string    // metric -> sample counts and bases, printed beside it
	samples    map[string][]float64 // metric -> the values its median was taken over, kept in the record
	context    map[string]any

	attempted, failed int
	failures          map[string]int // failed operations by reason
	problems          []string       // failed output checks

	setup time.Duration // summed set-up steps: input generation, store writes, daemon start

	truth *worldsim.World // ground truth of the study corpus, built on first use
	ticks cpuTicks        // machine CPU time at the start

	traceReport *TraceReport
}

func newRun(cfg config, p profile, runID, dir string) *run {
	r := &run{
		cfg: cfg, prof: p, runID: runID, dir: dir,
		e2e: map[string]Metric{}, layer: map[string]Metric{}, notes: map[string]string{}, samples: map[string][]float64{},
		failures: map[string]int{},
	}
	r.ticks = readCPUTicks()
	if cfg.trace {
		r.tr = newTracer(runID)
		r.root = r.tr.root("main", "bench.run")
	}
	r.context = map[string]any{
		"workload":   p.name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"short":      cfg.short,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(),
	}
	return r
}

func (r *run) setE2E(name string, v float64, unit string) { r.e2e[name] = Metric{v, unit} }
func (r *run) setLayer(name string, v float64, unit string) {
	r.layer[name] = Metric{v, unit}
}

// check records a failed output check; it fails the run without
// touching any number.
func (r *run) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// ops counts attempted operations and the failed ones by reason.
func (r *run) ops(attempted int, failed map[string]int) {
	r.attempted += attempted
	for reason, n := range failed {
		r.failed += n
		r.failures[reason] += n
	}
}

// setupStep runs one set-up step inside a span and adds its wall time
// to setup_s.
func (r *run) setupStep(name string, fn func() error) error {
	sp := r.root.child(name)
	start := time.Now()
	err := fn()
	r.setup += time.Since(start)
	sp.end()
	return err
}

// execute is the whole run: set-up, the study stage, the serving stage,
// and in a traced run the in-process replays.
func (r *run) execute(ctx context.Context) error {
	p := r.prof
	corpusDir := filepath.Join(r.dir, "corpus")
	if err := r.setupStep("setup.worldgen", func() error {
		_, err := runTool(ctx, r.tool("worldgen"), "-out", corpusDir,
			"-seed", fmt.Sprint(worldSeed), "-scale", fmt.Sprint(p.corpusScale),
			"-vendors", "rapid7", "-datasets")
		return err
	}); err != nil {
		return err
	}
	r.context["corpus_scale"] = p.corpusScale
	r.context["world_seed"] = worldSeed
	r.context["corpus_bytes"] = dirBytes(corpusDir)

	var served *footstore.Store
	if err := r.setupStep("setup.world_store", func() (err error) {
		served, err = worldStore(worldSeed, r.servedScale())
		return err
	}); err != nil {
		return err
	}

	sv, err := r.startServing(ctx, served)
	if err != nil {
		return err
	}
	defer sv.close()
	study, err := r.measure(ctx, corpusDir, sv)
	if err != nil {
		return err
	}
	stats := served.Stats()
	r.context["served_store"] = map[string]any{
		"scale": r.servedScale(), "snapshots": stats.Snapshots,
		"hypergiants": stats.Hypergiants, "spans": stats.Spans, "prefixes": stats.Prefixes,
	}
	stats = study.store.Stats()
	r.context["study_store"] = map[string]any{
		"snapshots": stats.Snapshots, "hypergiants": stats.Hypergiants, "spans": stats.Spans, "prefixes": stats.Prefixes,
	}
	if err := r.finishServing(ctx, sv); err != nil {
		return err
	}
	if r.cfg.trace {
		if err := r.tracedStudies(ctx, corpusDir, study); err != nil {
			return err
		}
	}
	r.setE2E("setup_s", r.setup.Seconds(), "s")
	steal := stealSince(r.ticks)
	r.setLayer("host.steal_frac", steal, "ratio")
	r.context["host_steal_frac"] = steal
	r.root.end()
	if r.tr != nil {
		r.traceChecks()
	}
	return nil
}

// measure is the timed part of a run. For cfg.seconds it repeats one
// cycle: an offnetmap study, then the profile's pairs of serving blocks.
// The host's speed drifts over seconds to minutes; spreading every
// metric's samples over the whole run, instead of giving each stage one
// stretch of it, keeps a slow spell from deciding one metric whole. A
// study or a pair is not started when its last one, taken again, would
// end past cfg.seconds; every run has at least one of each.
func (r *run) measure(ctx context.Context, corpusDir string, sv *serving) (*studyOut, error) {
	total := r.total()
	start := time.Now()
	fits := func(last time.Duration) bool { return time.Since(start)+last <= total }
	var s studies
	var studyD, pairD time.Duration
	for s.out == nil || fits(studyD) {
		t := time.Now()
		if err := r.studyRun(ctx, corpusDir, &s); err != nil {
			return nil, err
		}
		studyD = time.Since(t)
		for i := 0; i < r.prof.pairs && (pairD == 0 || fits(pairD)); i++ {
			t := time.Now()
			if err := r.blocks(ctx, sv); err != nil {
				return nil, err
			}
			pairD = time.Since(t)
		}
	}
	r.finishStudy(&s)
	return s.out, nil
}

// total is the measuring time of a run.
func (r *run) total() time.Duration { return time.Duration(r.cfg.seconds * float64(time.Second)) }

func (r *run) tool(name string) string { return filepath.Join(r.cfg.bin, name) }

// servedScale is the served store's world scale: full scale (75,769
// prefixes), or a small world in short mode.
func (r *run) servedScale() float64 {
	if r.cfg.short {
		return 0.05
	}
	return 1.0
}

// truthWorld is the simulator's ground truth for the study corpus —
// used only by the output checks, never by the programs measured.
func (r *run) truthWorld(scale float64) (*worldsim.World, error) {
	if r.truth == nil {
		w, err := worldsim.New(worldsim.Config{Seed: worldSeed, Scale: scale})
		if err != nil {
			return nil, err
		}
		r.truth = w
	}
	return r.truth, nil
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the measured source: the checkout's git commit, or
// "unknown" outside a repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// traceLayers are the layers self time is reported for: the modules the
// spans wrap, the generator, the two processes, the benchmark's own
// set-up and checks.
var traceLayers = []string{"setup", "worldsim", "corpus", "bgpsim", "core", "footstore", "offnetserve", "gen", "offnetmap", "offnetd", "bench"}

// Slack for the self-time check: the share of a lane's wall time that
// no layer span may cover. The main lane runs one call after another,
// so only the glue between spans is uncovered; a worker lane also idles
// while the pool drains its last snapshots.
const (
	mainSlack   = 0.02
	workerSlack = 0.15
)

// traceChecks analyses the spans: each layer's self time, and per lane
// the check that the layer self times add up to the lane's wall time
// within the slack.
func (r *run) traceChecks() {
	rep := analyze(r.tr.Spans(), runtime.NumCPU())
	r.traceReport = &rep
	for _, layer := range traceLayers {
		r.setLayer("self."+layer+"_s", rep.SelfS[layer], "s")
	}
	worker := 0.0
	for _, lane := range rep.Lanes {
		slack := mainSlack
		if lane.Lane != "main" {
			slack = workerSlack
			worker = max(worker, lane.UncoveredFrac)
		} else {
			r.setLayer("trace.wall_s", lane.WallS, "s")
			r.setLayer("trace.uncovered_frac_main", lane.UncoveredFrac, "ratio")
		}
		r.check(lane.UncoveredFrac <= slack,
			"trace lane %s: layer self times cover %.3fs of %.3fs wall; uncovered %.1f%% exceeds the %.0f%% slack",
			lane.Lane, lane.LayerSelfS, lane.WallS, 100*lane.UncoveredFrac, 100*slack)
	}
	r.setLayer("trace.uncovered_frac_workers", worker, "ratio")
	r.setLayer("trace.spans", float64(len(r.tr.Spans())), "count")
}

// cpuTicks is the machine's CPU time from the first line of /proc/stat:
// all of it, and the part a hypervisor gave to other guests (steal).
// Steal during a run says how far its timings can be trusted.
type cpuTicks struct{ total, steal uint64 }

// stealSince is the share of the machine's CPU time given to other
// guests since t.
func stealSince(t cpuTicks) float64 {
	now := readCPUTicks()
	return ratio(float64(now.steal-t.steal), float64(now.total-t.total))
}

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTicks
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user and nice.
	for i, f := range strings.Fields(line)[1:] {
		if i > 7 {
			break
		}
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}
