package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"offnetscope/internal/analysis"
	"offnetscope/internal/astopo"
	"offnetscope/internal/bgpsim"
	"offnetscope/internal/core"
	"offnetscope/internal/corpus"
	"offnetscope/internal/footstore"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/obs"
	"offnetscope/internal/offnetserve"
	"offnetscope/internal/resilience"
	"offnetscope/internal/timeline"
	"offnetscope/internal/worldsim"
)

// Accuracy floors for the inferred store against ground truth at the
// last study snapshot (micro-averaged over hypergiants, in percent).
// Measured runs sit well above them at both corpus scales; a run below
// means the inference or its inputs broke.
const (
	minPrecision = 80
	minRecall    = 50
)

// studyOut is what the study stage produced.
type studyOut struct {
	storeBytes []byte
	store      *footstore.Store
	metrics    obs.Snapshot
	proc       procStats
	records    int64
	precision  float64
	recall     float64
}

// studies is what the study runs of one benchmark run measured: the
// first run's outputs, which every later run must equal, and each run's
// figures.
type studies struct {
	out                      *studyOut
	rates, rss, walls, steal []float64
}

// studyRun runs `offnetmap -growth` over the corpus once, as a user
// does, and checks its outputs: the first run's in full, every later
// run's against the first's, since each must write the same store and
// counters.
func (r *run) studyRun(ctx context.Context, corpusDir string, s *studies) error {
	storePath := filepath.Join(r.dir, "study.fst")
	metricsPath := filepath.Join(r.dir, "study-metrics.json")
	jobs := runtime.NumCPU()
	sp := r.root.child("offnetmap.growth")
	ticks := readCPUTicks()
	proc, err := runTool(ctx, r.tool("offnetmap"), "-corpus", corpusDir, "-growth",
		"-jobs", fmt.Sprint(jobs), "-store", storePath, "-metrics", metricsPath)
	steal := stealSince(ticks)
	sp.end()
	if err != nil {
		r.ops(1, map[string]int{"offnetmap exit": 1})
		r.check(false, "offnetmap: %v", err)
		return fmt.Errorf("study run: %w", err)
	}
	r.ops(1, nil)
	chk := r.root.child("bench.check_study")
	defer chk.end()
	got, err := r.readStudy(storePath, metricsPath)
	if err != nil {
		return err
	}
	got.proc = proc
	if s.out == nil {
		s.out = got
		if err := r.checkStudy(got); err != nil {
			return err
		}
	} else {
		i := len(s.rates) + 1
		r.check(string(got.storeBytes) == string(s.out.storeBytes),
			"offnetmap run %d wrote store sha256 %s, run 1 wrote %s", i, sha256Hex(got.storeBytes), sha256Hex(s.out.storeBytes))
		r.check(equalCounters(deterministicCounters(got.metrics), deterministicCounters(s.out.metrics)),
			"offnetmap run %d counters differ from run 1's", i)
	}
	s.rates = append(s.rates, float64(got.records)/proc.Wall.Seconds())
	s.rss = append(s.rss, float64(proc.MaxRSS)/(1<<20))
	s.walls = append(s.walls, proc.Wall.Seconds())
	s.steal = append(s.steal, steal)
	r.setLayer("offnetmap.cpu_s", proc.CPU.Seconds(), "s")
	r.setLayer("offnetmap.cpu_util", proc.CPU.Seconds()/(proc.Wall.Seconds()*float64(jobs)), "ratio")
	return nil
}

// finishStudy reports the study figures: medians over the runs.
func (r *run) finishStudy(s *studies) {
	n := len(s.rates)
	rate, clean := cleanMedian(s.rates, s.steal)
	r.setE2E("study_records_per_s", rate, "1/s")
	r.samples["study_records_per_s"] = s.rates
	r.samples["study_steal"] = s.steal
	r.notes["study_records_per_s"] = fmt.Sprintf("median of %d of %d offnetmap runs (steal under %.0f%%), %d records each, -jobs %d; walls %.3g s",
		clean, n, 100*stealLimit, s.out.records, runtime.NumCPU(), s.walls)
	r.setE2E("study_peak_rss_mb", median(s.rss), "MB")
	r.samples["study_peak_rss_mb"] = s.rss
	r.notes["study_peak_rss_mb"] = fmt.Sprintf("median of %d offnetmap runs", n)
}

// readStudy reads one offnetmap run's store and metrics.
func (r *run) readStudy(storePath, metricsPath string) (*studyOut, error) {
	out := &studyOut{}
	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		return nil, err
	}
	if out.metrics, err = obs.ParseSnapshot(raw); err != nil {
		return nil, fmt.Errorf("offnetmap metrics: %w", err)
	}
	if out.storeBytes, err = os.ReadFile(storePath); err != nil {
		return nil, err
	}
	out.records = out.metrics.Counter("corpus.records")
	return out, nil
}

// checkStudy checks the first run's store: it decodes, passes
// SmokeValidate, scores above the accuracy floor, and matches the
// reference.
func (r *run) checkStudy(out *studyOut) error {
	r.context["records"] = out.records
	var err error
	out.store, err = footstore.Decode(out.storeBytes)
	if !r.check(err == nil, "study store does not decode: %v", err) {
		return fmt.Errorf("study store: %w", err)
	}
	r.check(offnetserve.SmokeValidate(out.store) == nil, "study store fails SmokeValidate: %v", offnetserve.SmokeValidate(out.store))
	r.check(out.records > 0 && out.metrics.Counter("corpus.records_skipped") == 0,
		"corpus read %d records with %d skipped", out.records, out.metrics.Counter("corpus.records_skipped"))

	truth, err := r.truthWorld(r.prof.corpusScale)
	if err != nil {
		return err
	}
	out.precision, out.recall = storeScore(truth, out.store)
	r.check(out.precision >= minPrecision && out.recall >= minRecall,
		"study accuracy precision %.1f%% recall %.1f%% below the floor (%d%%, %d%%)",
		out.precision, out.recall, minPrecision, minRecall)
	r.context["study_precision_pct"] = out.precision
	r.context["study_recall_pct"] = out.recall
	return r.checkReference(out)
}

// storeScore scores the store's last snapshot against ground truth the
// way analysis.ScoreStudy scores a study result.
func storeScore(truth analysis.OffNetTruth, st *footstore.Store) (precision, recall float64) {
	last := st.Latest()
	res := &analysis.ScoreResult{Snapshot: last}
	for _, h := range hg.All() {
		inferred := map[astopo.ASN]struct{}{}
		ases, _ := st.Footprint(h.ID, last)
		for _, as := range ases {
			inferred[as] = struct{}{}
		}
		res.Rows = append(res.Rows, analysis.ScoreSets(truth.TrueOffNetASes(h.ID, last), inferred))
	}
	return res.MicroAverage()
}

// defaultSeed is the -seed default. The seed draws the traffic; the
// worlds are fixed (worldSeed).
const defaultSeed = 1

// reference pins, per corpus scale, the study store hash and the
// deterministic counters of the corpus of world worldSeed.
type reference struct {
	StoreSHA256 string           `json:"store_sha256"`
	Counters    map[string]int64 `json:"counters"`
}

// deterministicCounters are offnetmap's funnel.* and corpus.* counters:
// byte-identical across runs and -jobs settings.
func deterministicCounters(s obs.Snapshot) map[string]int64 {
	out := map[string]int64{}
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "funnel.") || strings.HasPrefix(name, "corpus.") {
			out[name] = v
		}
	}
	return out
}

// checkReference compares the study output with the pinned reference
// (or records it with -update-reference).
func (r *run) checkReference(out *studyOut) error {
	refs := map[string]reference{}
	if raw, err := os.ReadFile(r.cfg.reference); err == nil {
		if err := json.Unmarshal(raw, &refs); err != nil {
			return fmt.Errorf("%s: %w", r.cfg.reference, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	key := fmt.Sprint(r.prof.corpusScale)
	got := reference{StoreSHA256: sha256Hex(out.storeBytes), Counters: deterministicCounters(out.metrics)}
	if r.cfg.updateRef {
		refs[key] = got
		data, err := json.MarshalIndent(refs, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(r.cfg.reference, append(data, '\n'), 0o644)
	}
	want, ok := refs[key]
	if !r.check(ok, "no reference for corpus scale %s in %s", key, r.cfg.reference) {
		return nil
	}
	r.check(got.StoreSHA256 == want.StoreSHA256, "study store sha256 %s, reference %s", got.StoreSHA256, want.StoreSHA256)
	r.check(equalCounters(got.Counters, want.Counters), "study counters differ from the reference: got %v, want %v", got.Counters, want.Counters)
	return nil
}

func equalCounters(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// worldSeed fixes the simulated world in every run, for both the study
// corpus and the served store; the run's seed draws only the traffic.
// On the study corpus, another world means another record count and
// another mix of certificates, so records/s would follow the world
// rather than the code. On the served store, loadgen ranks hot prefixes
// by address, so under zipf traffic a few low-addressed prefixes take
// most lookups, and another world would put other ASes — other answer
// sizes — there.
const worldSeed = 1

// worldStore builds the serving store from simulator ground truth: every
// hypergiant's true off-net footprint at each of the 31 snapshots, and
// the last snapshot's IP-to-AS table. The serving layers only see the
// store's shape, and inferring a full-scale store would take minutes.
func worldStore(seed uint64, scale float64) (*footstore.Store, error) {
	w, err := worldsim.New(worldsim.Config{Seed: seed, Scale: scale})
	if err != nil {
		return nil, err
	}
	b := footstore.NewBuilder()
	snaps := timeline.All()
	for _, s := range snaps {
		fp := map[hg.ID][]astopo.ASN{}
		for _, h := range hg.All() {
			fp[h.ID] = w.TrueOffNetASes(h.ID, s)
		}
		if err := b.AddSnapshot(s, fp); err != nil {
			return nil, err
		}
	}
	b.AddPrefixes(w.IP2AS(snaps[len(snaps)-1]))
	return b.Build()
}

// trimmed is st without its first four snapshots: the second store the
// reload workloads alternate with, so answers differ by generation.
func trimmed(st *footstore.Store) (*footstore.Store, error) {
	b := footstore.NewBuilder()
	ids := st.Hypergiants()
	for _, s := range st.Snapshots()[4:] {
		fp := map[hg.ID][]astopo.ASN{}
		for _, id := range ids {
			fp[id], _ = st.Footprint(id, s)
		}
		if err := b.AddSnapshot(s, fp); err != nil {
			return nil, err
		}
	}
	st.WalkPrefixes(func(p netmodel.Prefix, origins []astopo.ASN) bool {
		b.AddPrefix(p, origins)
		return true
	})
	return b.Build()
}

// tracedStudies runs the in-process study twice, untraced and then
// traced; the difference of their wall times is the tracing overhead.
func (r *run) tracedStudies(ctx context.Context, corpusDir string, want *studyOut) error {
	sp := r.root.child("bench.untraced_study")
	plain, err := r.inProcessStudy(ctx, corpusDir, want, ref{})
	sp.end()
	if err != nil {
		return err
	}
	traced, err := r.inProcessStudy(ctx, corpusDir, want, r.root)
	if err != nil {
		return err
	}
	r.setLayer("trace.study_wall_s", traced.Seconds(), "s")
	r.setLayer("trace.overhead_s", (traced - plain).Seconds(), "s")
	r.notes["trace.overhead_s"] = fmt.Sprintf("traced in-process study %.3fs minus untraced in-process study %.3fs (offnetmap subprocess: %.3fs)",
		traced.Seconds(), plain.Seconds(), want.proc.Wall.Seconds())
	return nil
}

// inProcessStudy rebuilds offnetmap's pipeline in-process the way its
// pipelineFromManifest does, runs the same streamed study with spans
// under parent around every wrapped call (none when parent is the zero
// ref), and checks that it measured the same program: its store must
// be byte-identical to the subprocess's, its counters equal, and
// analysis.ScoreStudy must agree with the store's score. It returns the
// study's wall time, pipeline construction to encoded store.
func (r *run) inProcessStudy(ctx context.Context, corpusDir string, want *studyOut, parent ref) (time.Duration, error) {
	runtime.GC() // both runs start from the same collected heap
	top := parent.child("bench.traced_study")
	start := time.Now()

	var mf struct {
		Seed  uint64  `json:"seed"`
		Scale float64 `json:"scale"`
	}
	raw, err := os.ReadFile(filepath.Join(corpusDir, "manifest.json"))
	if err != nil {
		return 0, err
	}
	if err := json.Unmarshal(raw, &mf); err != nil {
		return 0, fmt.Errorf("manifest: %w", err)
	}
	var w *worldsim.World
	d := timed(top, "worldsim.trust_world", func() {
		w, err = worldsim.New(worldsim.Config{Seed: mf.Seed, Scale: mf.Scale})
	})
	if err != nil {
		return 0, err
	}
	r.setLayer("worldsim.trust_world_s", d.Seconds(), "s")

	jobs := runtime.NumCPU()
	reg := obs.NewRegistry("offnetmap")
	p := &core.Pipeline{Trust: w.TrustStore(), Orgs: w.Orgs(), Opts: core.DefaultOptions(), Metrics: reg, Shards: max(1, runtime.NumCPU()/jobs)}
	dsDir := filepath.Join(corpusDir, "datasets")
	timed(top, "corpus.read_orgs", func() {
		var f *os.File
		if f, err = os.Open(filepath.Join(dsDir, "as-org.txt")); err == nil {
			p.Orgs, err = astopo.ReadOrgs(f)
			f.Close()
		}
	})
	if err != nil {
		return 0, fmt.Errorf("as-org.txt: %w", err)
	}

	// The mapper cache of offnetmap, with the call wrapped: a span
	// under the snapshot that asked (or under the caller after the
	// study), and a count of calls that built a table.
	var (
		mu        sync.Mutex
		cache     = map[timeline.Snapshot]core.IPMapper{}
		snapSpans = map[timeline.Snapshot]ref{}
		mapperNs  atomic.Int64
		builds    atomic.Int64
	)
	build := func(s timeline.Snapshot) core.IPMapper {
		var ribs []*bgpsim.RIB
		for _, col := range []bgpsim.Collector{bgpsim.RouteViews, bgpsim.RIPERIS} {
			f, err := os.Open(filepath.Join(dsDir, "rib", fmt.Sprintf("%s_%s.txt", col, s.Label())))
			if err != nil {
				continue
			}
			rib, perr := bgpsim.ReadRIB(f)
			f.Close()
			if perr == nil {
				ribs = append(ribs, rib)
			}
		}
		if len(ribs) > 0 {
			return bgpsim.BuildIP2AS(s, ribs...)
		}
		return w.IP2AS(s)
	}
	p.Mapper = func(s timeline.Snapshot) core.IPMapper {
		mu.Lock()
		parent, ok := snapSpans[s]
		if !ok {
			parent = top // the store build after the study
		}
		m, hit := cache[s]
		mu.Unlock()
		sp := parent.child("bgpsim.ip2as")
		t := time.Now()
		if !hit {
			m = build(s)
			builds.Add(1)
			mu.Lock()
			cache[s] = m
			mu.Unlock()
		}
		mapperNs.Add(int64(time.Since(t)))
		sp.end()
		return m
	}

	opts := corpus.ReadOptions{Tolerant: true, MaxBadFraction: 0.05, Metrics: reg, ChunkSize: corpus.DefaultChunkSize}
	var streamNs, validateNs, indexNs atomic.Int64
	heap := newHeapSampler()
	studySpan := top.child("core.study")
	source := func(ctx context.Context, s timeline.Snapshot) (*corpus.Stream, error) {
		heap.sample()
		snap := studySpan.pooled("core.snapshot")
		// The runner cancels the attempt's context as soon as the
		// snapshot's inference returns: that is the span's end.
		context.AfterFunc(ctx, func() {
			snap.end()
			mu.Lock()
			delete(snapSpans, s)
			mu.Unlock()
		})
		mu.Lock()
		snapSpans[s] = snap
		mu.Unlock()
		open := snap.child("corpus.open")
		st, err := corpus.OpenStream(corpusDir, corpus.Rapid7, s, opts)
		open.end()
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil, nil
			}
			return nil, err
		}
		certs, https, http := st.Certs, st.HTTPS, st.HTTP
		st.Certs = func(yield func([]corpus.CertRecord) error) error {
			return timedStream(snap, "corpus.certs", "core.validate", &streamNs, &validateNs, certs, yield)
		}
		st.HTTPS = func(yield func([]corpus.HeaderRecord) error) error {
			return timedStream(snap, "corpus.https", "core.index_headers", &streamNs, &indexNs, https, yield)
		}
		st.HTTP = func(yield func([]corpus.HeaderRecord) error) error {
			return timedStream(snap, "corpus.http", "core.index_headers", &streamNs, &indexNs, http, yield)
		}
		return st, nil
	}
	gc0 := readGC()
	var dropped []string
	sr, err := p.RunStudyStream(ctx, source, core.StudyConfig{
		Jobs:            jobs,
		SnapshotTimeout: 30 * time.Minute,
		Retry:           resilience.Policy{Metrics: reg},
		OnDrop:          func(s timeline.Snapshot, err error) { dropped = append(dropped, s.Label()) },
	})
	studySpan.end()
	gc1 := readGC()
	heap.sample()
	if err != nil {
		return 0, fmt.Errorf("traced study: %w", err)
	}
	r.check(len(dropped) == 0, "traced study dropped snapshots %v", dropped)

	snaps := sr.Snapshots()
	var st *footstore.Store
	buildD := timed(top, "footstore.build", func() {
		src, _ := p.Mapper(snaps[len(snaps)-1]).(footstore.PrefixSource)
		st, err = footstore.FromStudy(sr, src)
	})
	if err != nil {
		return 0, err
	}
	var data []byte
	encodeD := timed(top, "footstore.encode", func() { data = st.Encode() })
	wall := time.Since(start)
	top.end()

	chk := parent.child("bench.check_traced_study")
	defer chk.end()
	r.check(string(data) == string(want.storeBytes),
		"traced in-process study store (sha256 %s) differs from offnetmap's (sha256 %s)", sha256Hex(data), sha256Hex(want.storeBytes))
	got := reg.Snapshot()
	r.check(equalCounters(deterministicCounters(got), deterministicCounters(want.metrics)),
		"traced study counters differ from offnetmap's: %v vs %v", deterministicCounters(got), deterministicCounters(want.metrics))
	prec, rec := analysis.ScoreStudy(w, sr).MicroAverage()
	r.check(prec == want.precision && rec == want.recall,
		"analysis.ScoreStudy %.2f/%.2f disagrees with the store's score %.2f/%.2f", prec, rec, want.precision, want.recall)

	hist := func(name string) float64 { return float64(got.Histograms[name].Sum) / 1e9 }
	decodeNs := streamNs.Load() - validateNs.Load() - indexNs.Load()
	r.setLayer("corpus.decode_s", float64(decodeNs)/1e9, "s")
	r.setLayer("corpus.records", float64(got.Counter("corpus.records")), "count")
	r.setLayer("corpus.records_skipped", float64(got.Counter("corpus.records_skipped")), "count")
	r.setLayer("core.validate_s", float64(validateNs.Load())/1e9, "s")
	r.setLayer("core.match_s", hist("funnel.match_ns"), "s")
	r.setLayer("core.snapshot_s", hist("funnel.snapshot_ns"), "s")
	r.setLayer("core.certs_valid_frac", ratio(float64(got.Counter("funnel.certs_valid")), float64(got.Counter("funnel.certs_seen"))), "ratio")
	r.setLayer("core.confirm_frac", ratio(float64(got.Counter("funnel.confirmed_ips")), float64(got.Counter("funnel.candidate_ips"))), "ratio")
	r.setLayer("bgpsim.ip2as_s", float64(mapperNs.Load())/1e9, "s")
	r.setLayer("bgpsim.ip2as_builds", float64(builds.Load()), "count")
	r.setLayer("study.peak_live_heap_mb", float64(heap.peak)/(1<<20), "MB")
	r.setLayer("study.gc_cpu_frac", ratio(gc1.gc-gc0.gc, gc1.total-gc0.total), "ratio")
	r.setLayer("footstore.build_s", buildD.Seconds(), "s")
	r.setLayer("footstore.encode_s", encodeD.Seconds(), "s")
	r.setLayer("footstore.bytes", float64(len(data)), "bytes")
	return wall, nil
}

// timedStream runs one of a corpus.Stream's record streams inside a
// span, timing the consumer's yield callback as a child span: time
// outside the callback is decode, inside it is the consumer's work.
func timedStream[T any](parent ref, name, inner string, streamNs, innerNs *atomic.Int64,
	stream func(func([]T) error) error, yield func([]T) error) error {
	sp := parent.child(name)
	start := time.Now()
	err := stream(func(batch []T) error {
		c := sp.child(inner)
		t := time.Now()
		err := yield(batch)
		innerNs.Add(int64(time.Since(t)))
		c.end()
		return err
	})
	streamNs.Add(int64(time.Since(start)))
	sp.end()
	return err
}

// heapSampler tracks the peak live heap (as of the last GC) across the
// samples taken at each snapshot start.
type heapSampler struct {
	mu   sync.Mutex
	buf  []metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{buf: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapSampler) sample() {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.buf)
	if v := h.buf[0].Value; v.Kind() == metrics.KindUint64 {
		h.peak = max(h.peak, v.Uint64())
	}
}

// gcCPU is the runtime's cumulative CPU-time estimates.
type gcCPU struct{ gc, total float64 }

func readGC() gcCPU {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out gcCPU
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.total = s[1].Value.Float64()
	}
	return out
}
