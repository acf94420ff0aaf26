package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"offnetscope/internal/footstore"
	"offnetscope/internal/loadgen"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/obs"
	"offnetscope/internal/offnetserve"
)

// watchInterval is offnetd's generation-log poll period in every
// workload: short, so reload lag measures load, validation and swap
// rather than the poll.
const watchInterval = "1ms"

// idleReloadsPerPair is how many reloads are timed after each pair of
// blocks when none run under load: at ~0.1s each, a few dozen over a run.
const idleReloadsPerPair = 4

// sampleEvery keeps one in this many /v1/ip and batch answers for the
// correctness check, verified after the timed phases.
const sampleEvery = 16

// serving is the serving side of a run: `offnetd -genlog` on loopback,
// the one-process generator over runtime.NumCPU() connections with its
// plans, and what the blocks have measured so far.
type serving struct {
	d    *daemon
	base string
	g    *generator
	rl   *reloader
	a    *footstore.Store // the served store

	phase      time.Duration // one open-loop or closed-loop block
	perBlock   int           // open-loop requests per block
	openPlan   []loadgen.Request
	closedPlan []loadgen.Request

	open     openResult
	closed   closedResult
	blockP50 []float64
	idleLags []float64

	// The host steal share of each sample's pair of blocks, aligned
	// with blockP50, closed.windows, idleLags and the reloader's
	// appends.
	blockSteal, windowSteal, idleSteal, appendSteal []float64
}

// startServing writes the store to a fresh generation log, starts
// offnetd on it and waits until it serves the watcher's first
// generation (all set-up), then builds the traffic plans.
func (r *run) startServing(ctx context.Context, a *footstore.Store) (*serving, error) {
	p := r.prof
	sv := &serving{rl: &reloader{}, a: a}
	rl := sv.rl
	glDir := filepath.Join(r.dir, "genlog")
	if err := r.setupStep("setup.genlog", func() error {
		b, err := trimmed(a)
		if err != nil {
			return err
		}
		rl.alt = [2]*footstore.Store{a, b}
		if rl.log, _, err = footstore.OpenGenLog(glDir); err != nil {
			return err
		}
		_, err = rl.log.Append(a)
		// Server generation 1 is the log's newest generation at boot;
		// the watcher then reloads log generation 1 as server
		// generation 2.
		rl.byGen = []*footstore.Store{nil, a, a}
		return err
	}); err != nil {
		return nil, err
	}

	var readyD time.Duration
	if err := r.setupStep("offnetd.start", func() (err error) {
		start := time.Now()
		sv.d, err = startDaemon(r.tool("offnetd"), "-genlog", glDir, "-addr", "127.0.0.1:0", "-watch-interval", watchInterval)
		if err != nil {
			return err
		}
		sv.base = "http://" + sv.d.addr
		err = waitGeneration(ctx, http.DefaultClient, sv.base, 2, 30*time.Second)
		readyD = time.Since(start)
		return err
	}); err != nil {
		if sv.d != nil {
			sv.d.stop()
		}
		return nil, err
	}
	r.setLayer("offnetd.ready_s", readyD.Seconds(), "s")

	// Blocks last a second (half the run when it is shorter). Each
	// pair of blocks shares its run's time with a study, so the run
	// fits fewer than total/(2*phase) pairs; the open-loop plan holds
	// that many blocks of requests.
	total := r.total()
	sv.phase = min(time.Second, total/2)
	maxBlocks := int(total/(2*sv.phase)) + 1
	sv.perBlock = max(1, int(p.openRate*sv.phase.Seconds()))
	planCfg := loadgen.PlanConfig{Seed: r.cfg.seed, Requests: sv.perBlock * maxBlocks, ZipfS: 1.2}
	closedRequests := 16384
	if p.batch > 0 {
		// Batches carry DefaultMix's IP lookups in its proportions
		// (hot 0.70 : cold 0.10, so 87.5% hot).
		m := loadgen.DefaultMix()
		planCfg.Mix = loadgen.Mix{IPHot: m.IPHot, IPCold: m.IPCold}
		planCfg.BatchSize = p.batch
		closedRequests = max(64, closedRequests/p.batch)
	}
	openPlan, err := loadgen.BuildPlan(a, planCfg)
	if err != nil {
		sv.d.stop()
		return nil, err
	}
	planCfg.Seed, planCfg.Requests = r.cfg.seed+1, closedRequests
	closedPlan, err := loadgen.BuildPlan(a, planCfg)
	if err != nil {
		sv.d.stop()
		return nil, err
	}
	sv.openPlan, sv.closedPlan = openPlan.Requests, closedPlan.Requests
	sv.g = newGenerator(sv.base, nconns())
	return sv, nil
}

// close closes the generator's connections and stops offnetd, if that
// has not happened yet.
func (sv *serving) close() {
	sv.g.close()
	sv.d.stop()
}

// blocks runs one open-loop block at the profile's fixed rate and one
// closed-loop block that measures capacity. serve-reload appends
// generations while they run; the other workloads time
// idleReloadsPerPair reloads after them, with no traffic running.
func (r *run) blocks(ctx context.Context, sv *serving) error {
	p := r.prof
	ticks := readCPUTicks()
	stop := make(chan struct{})
	appendErr := make(chan error, 1)
	if p.reloadEvery > 0 {
		start := time.Now()
		go func() { appendErr <- sv.rl.appendDuring(start, 2*sv.phase, p.reloadEvery, stop) }()
	}
	from := len(sv.blockP50) * sv.perBlock % len(sv.openPlan)
	sp := r.root.child("gen.open_loop")
	o := sv.g.openLoop(ctx, sv.openPlan[from:min(from+sv.perBlock, len(sv.openPlan))], p.openRate, sv.phase)
	sp.end()
	sorted := append([]float64(nil), o.lat...)
	sort.Float64s(sorted)
	sv.blockP50 = append(sv.blockP50, quantile(sorted, 0.5))
	sv.open.lat = append(sv.open.lat, o.lat...)
	sv.open.late = append(sv.open.late, o.late...)
	sp = r.root.child("gen.closed_loop")
	c := sv.g.closedLoop(ctx, sv.closedPlan, sv.phase)
	sp.end()
	sv.closed.lookups += c.lookups
	sv.closed.requests += c.requests
	sv.closed.elapsed += c.elapsed
	sv.closed.windows = append(sv.closed.windows, c.windows...)
	close(stop)
	idle := 0
	if p.reloadEvery > 0 {
		if err := <-appendErr; err != nil {
			return err
		}
	} else {
		idle = idleReloadsPerPair
		if r.cfg.short {
			idle = 1
		}
		sp = r.root.child("gen.idle_reloads")
		for range idle {
			lag, err := sv.rl.idleReload(ctx, sv.g.conns[0].client, sv.base)
			if err != nil {
				sp.end()
				return err
			}
			sv.idleLags = append(sv.idleLags, lag)
		}
		sp.end()
	}

	steal := stealSince(ticks)
	sv.blockSteal = append(sv.blockSteal, steal)
	for range c.windows {
		sv.windowSteal = append(sv.windowSteal, steal)
	}
	for range idle {
		sv.idleSteal = append(sv.idleSteal, steal)
	}
	for len(sv.appendSteal) < sv.rl.appended() {
		sv.appendSteal = append(sv.appendSteal, steal)
	}
	return nil
}

// finishServing checks what the blocks saw — every reload arrived,
// offnetd accepted each, sampled answers match the store of the
// generation that gave them — stops offnetd and reports the serving
// figures.
func (r *run) finishServing(ctx context.Context, sv *serving) error {
	p := r.prof
	g, base, rl := sv.g, sv.base, sv.rl
	open, closed := sv.open, sv.closed
	lags, lagSteal := sv.idleLags, sv.idleSteal
	if p.reloadEvery > 0 {
		lags, lagSteal = rl.lagsUnderLoad(g.events()), sv.appendSteal
	}
	reloadFails := 0
	for _, l := range lags {
		if math.IsInf(l, 1) {
			reloadFails++
		}
	}
	r.ops(len(lags), map[string]int{"reload not observed": reloadFails})

	chk := r.root.child("bench.check_serve")
	finalGen := uint64(len(rl.byGen) - 1)
	r.check(waitGeneration(ctx, g.conns[0].client, base, finalGen, 10*time.Second) == nil,
		"offnetd never reached generation %d", finalGen)
	daemonMetrics, err := fetchMetrics(g.conns[0].client, base)
	if err != nil {
		chk.end()
		return err
	}
	g.close()
	proc, err := sv.d.stop()
	if err != nil {
		chk.end()
		return err
	}
	accepted := daemonMetrics.Counter("reload.accepted")
	r.check(accepted == int64(finalGen-1) && daemonMetrics.Counter("reload.rejected") == 0,
		"offnetd accepted %d reloads and rejected %d, want %d and 0", accepted, daemonMetrics.Counter("reload.rejected"), finalGen-1)
	attempted, failures := g.outcomes()
	r.ops(attempted, failures)
	wrong := 0
	for _, ans := range g.sampled() {
		if err := verifyAnswer(rl.byGen, ans); err != nil {
			if wrong < 3 {
				r.check(false, "wrong answer: %v", err)
			}
			wrong++
		}
	}
	r.ops(0, map[string]int{"wrong answer": wrong})
	r.context["answers_checked"] = len(g.sampled())
	chk.end()

	sort.Float64s(open.lat)
	p50, cleanBlocks := cleanMedian(sv.blockP50, sv.blockSteal)
	r.setE2E("serve_p50_ms", p50, "ms")
	r.samples["serve_p50_ms"] = sv.blockP50
	r.samples["serve_steal"] = sv.blockSteal
	r.setLayer("serve.p99_ms", quantile(open.lat, 0.99), "ms")
	beyond := len(open.lat) - int(math.Ceil(0.99*float64(len(open.lat))))
	r.notes["serve_p50_ms"] = fmt.Sprintf("median over %d of %d blocks (steal under %.0f%%) of %d open-loop samples at %.0f req/s (all %d: p50 %.4g)",
		cleanBlocks, len(sv.blockP50), 100*stealLimit, sv.perBlock, p.openRate, len(open.lat), quantile(open.lat, 0.5))
	r.notes["serve.p99_ms"] = fmt.Sprintf("%d open-loop samples, %d beyond p99", len(open.lat), beyond)
	capacity, cleanWindows := cleanMedian(closed.windows, sv.windowSteal)
	r.setE2E("serve_lookups_per_s", capacity, "1/s")
	r.notes["serve_lookups_per_s"] = fmt.Sprintf("median of %d of %d %s windows (steal under %.0f%%); %d lookups in %d requests over %.2fs, %d connections",
		cleanWindows, len(closed.windows), window, 100*stealLimit, closed.lookups, closed.requests, closed.elapsed.Seconds(), len(g.conns))
	r.setE2E("serve_peak_rss_mb", float64(proc.MaxRSS)/(1<<20), "MB")
	lag, cleanLags := cleanMedian(lags, lagSteal)
	r.setE2E("reload_lag_ms", lag, "ms")
	r.samples["reload_lag_ms"] = lags
	r.samples["serve_lookups_per_s"] = closed.windows
	r.notes["reload_lag_ms"] = fmt.Sprintf("median of %d of %d reloads (steal under %.0f%%), watch interval %s",
		cleanLags, len(lags), 100*stealLimit, watchInterval)

	sort.Float64s(open.late)
	r.setLayer("gen.lateness_p99_ms", quantile(open.late, 0.99), "ms")
	r.notes["gen.lateness_p99_ms"] = fmt.Sprintf("%d sends that waited for their schedule", len(open.late))
	r.setLayer("gen.open_samples", float64(len(open.lat)), "count")
	r.setLayer("offnetd.cpu_s", proc.CPU.Seconds(), "s")
	r.setLayer("footstore.genlog_append_ms", median(rl.appendMs), "ms")
	hits := float64(daemonMetrics.Counter("cache.hits"))
	r.setLayer("offnetserve.cache_hit_frac", ratio(hits, hits+float64(daemonMetrics.Counter("cache.misses")+daemonMetrics.Counter("cache.shared"))), "ratio")
	r.setLayer("offnetserve.cache_evictions", float64(daemonMetrics.Counter("cache.evictions")), "count")
	r.setLayer("offnetserve.cache_flushed", float64(daemonMetrics.Counter("cache.flushed")), "count")
	val := daemonMetrics.Histograms["reload.validate_ns"]
	r.setLayer("offnetserve.reload_validate_ms", ratio(float64(val.Sum), float64(val.Count))/1e6, "ms")
	r.setLayer("offnetserve.reloads_accepted", float64(accepted), "count")
	r.setLayer("offnetserve.shed", float64(daemonMetrics.Counter("http.shed")), "count")
	for _, ep := range []string{"ip", "as", "footprint", "batch"} {
		h := daemonMetrics.Histograms["http.latency_ns."+ep]
		r.setLayer("offnetserve.latency_mean_us."+ep, ratio(float64(h.Sum), float64(h.Count))/1e3, "us")
	}

	if r.tr != nil {
		r.replay(sv.a, sv.openPlan, mean(finite(open.lat)))
	}
	return nil
}

// sleepUntil blocks until t. time.Sleep rounds sub-millisecond waits up
// to the runtime poller's millisecond tick; nanosleep on the caller's
// own thread wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // interrupted: the loop sleeps the rest
	}
}

// nconns is the generator's connection count: one per CPU.
func nconns() int { return runtime.NumCPU() }

// replay times the layers under the daemon in-process: the production
// handler stack on the plan the open loop sent, the store's trie over
// the plan's IPs, and a full store decode.
func (r *run) replay(st *footstore.Store, plan []loadgen.Request, e2eMeanMs float64) {
	top := r.root.child("bench.replay")
	defer top.end()
	srv := offnetserve.New(st, offnetserve.Config{
		Workers: 256, QueueWait: time.Second, CacheSize: 4096, MaxBatch: offnetserve.DefaultMaxBatch,
		RequestTimeout: 5 * time.Second, BreakerFailures: 32, BreakerOpenFor: time.Second,
	})
	lat := make([]float64, 0, len(plan))
	for i := range plan {
		req := &plan[i]
		var body io.Reader
		if req.Body != nil {
			body = bytes.NewReader(req.Body)
		}
		hreq, err := http.NewRequest(req.Method, "http://offnetd.invalid"+req.Path, body)
		if err != nil {
			continue
		}
		w := &discard{header: http.Header{}}
		sp := top.child("offnetserve.handler")
		start := time.Now()
		srv.ServeHTTP(w, hreq)
		lat = append(lat, float64(time.Since(start))/1e3)
		sp.end()
	}
	sort.Float64s(lat)
	r.setLayer("offnetserve.handler_p50_us", quantile(lat, 0.50), "us")
	r.setLayer("offnetserve.handler_p99_us", quantile(lat, 0.99), "us")
	r.notes["offnetserve.handler_p99_us"] = fmt.Sprintf("%d in-process requests", len(lat))
	r.setLayer("transport.share", 1-mean(lat)/1e3/e2eMeanMs, "ratio")
	r.notes["transport.share"] = fmt.Sprintf("1 - handler mean %.1fus / open-loop mean %.1fus", mean(lat), e2eMeanMs*1e3)

	ips := planIPs(plan)
	var n int
	d := timed(top, "footstore.lookup", func() {
		for start := time.Now(); n == 0 || time.Since(start) < 200*time.Millisecond; {
			for _, ip := range ips {
				st.LookupIP(ip)
			}
			n += len(ips)
		}
	})
	r.setLayer("footstore.lookup_ns", float64(d)/float64(max(n, 1)), "ns")
	r.notes["footstore.lookup_ns"] = fmt.Sprintf("%d LookupIP calls over the plan's %d IPs", n, len(ips))

	enc := st.Encode()
	var decodes []float64
	for range 5 {
		d := timed(top, "footstore.decode", func() {
			if _, err := footstore.Decode(enc); err != nil {
				r.check(false, "store decode: %v", err)
			}
		})
		decodes = append(decodes, d.Seconds())
	}
	r.setLayer("footstore.decode_s", median(decodes), "s")
}

// discard is a ResponseWriter that keeps nothing.
type discard struct {
	header http.Header
	status int
}

func (w *discard) Header() http.Header         { return w.header }
func (w *discard) WriteHeader(code int)        { w.status = code }
func (w *discard) Write(p []byte) (int, error) { return len(p), nil }

// planIPs lists every IP the plan looks up, batch items included.
func planIPs(plan []loadgen.Request) []netmodel.IP {
	var out []netmodel.IP
	for _, req := range plan {
		for _, raw := range requestIPs(&req) {
			if ip, err := netmodel.ParseIP(raw); err == nil {
				out = append(out, ip)
			}
		}
	}
	return out
}

// requestIPs is the IPs a /v1/ip or batch request asks about.
func requestIPs(req *loadgen.Request) []string {
	switch req.Kind {
	case loadgen.KindIPHot, loadgen.KindIPCold:
		return []string{strings.TrimPrefix(req.Path, "/v1/ip/")}
	case loadgen.KindBatch:
		var body struct {
			IPs []string `json:"ips"`
		}
		_ = json.Unmarshal(req.Body, &body) // the plan wrote it
		return body.IPs
	}
	return nil
}

func finite(v []float64) []float64 {
	var out []float64
	for _, x := range v {
		if !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	return out
}

// waitGeneration polls /readyz until it answers 200 with at least the
// wanted generation.
func waitGeneration(ctx context.Context, client *http.Client, base string, want uint64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		gen, err := readyGeneration(ctx, client, base)
		if err == nil && gen >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("offnetd not ready at generation %d after %s (last: generation %d, %v)", want, limit, gen, err)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		sleepUntil(time.Now().Add(200 * time.Microsecond))
	}
}

func readyGeneration(ctx context.Context, client *http.Client, base string) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/readyz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/readyz: %d", resp.StatusCode)
	}
	return generationOf(body), nil
}

func fetchMetrics(client *http.Client, base string) (obs.Snapshot, error) {
	resp, err := client.Get(base + "/debug/metrics")
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return obs.Snapshot{}, err
	}
	return obs.ParseSnapshot(body)
}

var genKey = []byte(`"generation": `)

// generationOf extracts the top-level generation field of an offnetd
// answer without decoding the whole body (0 when absent).
func generationOf(body []byte) uint64 {
	i := bytes.Index(body, genKey)
	if i < 0 {
		return 0
	}
	rest := body[i+len(genKey):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, _ := strconv.ParseUint(string(rest[:j]), 10, 64)
	return n
}

// reloader appends generations to the log and remembers which store
// each server generation serves.
type reloader struct {
	log *footstore.GenLog
	alt [2]*footstore.Store // the two stores appended in turn

	mu       sync.Mutex
	byGen    []*footstore.Store // server generation -> store
	appends  []appendEvent
	appendMs []float64
}

type appendEvent struct {
	returned time.Time
	gen      uint64 // the server generation that will carry it
}

// appendNext appends the next store in turn and returns when Append
// has returned.
func (rl *reloader) appendNext() (appendEvent, error) {
	rl.mu.Lock()
	st := rl.alt[1-len(rl.appends)%2] // B first: it differs from the booted A
	rl.mu.Unlock()
	start := time.Now()
	if _, err := rl.log.Append(st); err != nil {
		return appendEvent{}, fmt.Errorf("genlog append: %w", err)
	}
	ev := appendEvent{returned: time.Now()}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.appendMs = append(rl.appendMs, ms(ev.returned.Sub(start)))
	rl.byGen = append(rl.byGen, st)
	ev.gen = uint64(len(rl.byGen) - 1)
	rl.appends = append(rl.appends, ev)
	return ev, nil
}

// appended is how many generations have been appended.
func (rl *reloader) appended() int {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return len(rl.appends)
}

// appendDuring appends a generation at start+period/2 and then once per
// period, as long as each append leaves half a period of the window for
// the traffic to see it, or until stop closes.
func (rl *reloader) appendDuring(start time.Time, window, period time.Duration, stop <-chan struct{}) error {
	for at := period / 2; at+period/2 <= window; at += period {
		t := time.NewTimer(time.Until(start.Add(at)))
		select {
		case <-stop:
			t.Stop()
			return nil
		case <-t.C:
		}
		if _, err := rl.appendNext(); err != nil {
			return err
		}
	}
	return nil
}

// lagsUnderLoad is, per append, the time from Append returning to the
// first traffic response carrying the new generation (+Inf when none
// did).
func (rl *reloader) lagsUnderLoad(events []respEvent) []float64 {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	lags := make([]float64, len(rl.appends))
	for i, ev := range rl.appends {
		lags[i] = math.Inf(1)
		for _, re := range events {
			if re.gen >= ev.gen && !re.done.Before(ev.returned) {
				lags[i] = min(lags[i], ms(re.done.Sub(ev.returned)))
			}
		}
	}
	return lags
}

// idleReload appends one generation with no traffic running and polls
// /readyz on one connection until the new generation answers.
func (rl *reloader) idleReload(ctx context.Context, client *http.Client, base string) (float64, error) {
	ev, err := rl.appendNext()
	if err != nil {
		return 0, err
	}
	deadline := ev.returned.Add(10 * time.Second)
	for time.Now().Before(deadline) {
		gen, err := readyGeneration(ctx, client, base)
		if err == nil && gen >= ev.gen {
			return ms(time.Since(ev.returned)), nil
		}
		sleepUntil(time.Now().Add(100 * time.Microsecond))
	}
	return math.Inf(1), nil
}

// hostingAnswer and ipAnswer are the wire form of offnetd's /v1/ip
// answer (also each /v1/batch item).
type hostingAnswer struct {
	HG      string `json:"hg"`
	AS      uint32 `json:"as"`
	First   string `json:"first"`
	Last    string `json:"last"`
	Current bool   `json:"current"`
}

type ipAnswer struct {
	IP       string          `json:"ip"`
	Mapped   bool            `json:"mapped"`
	Prefix   string          `json:"prefix"`
	ASNs     []uint32        `json:"asns"`
	Hostings []hostingAnswer `json:"hostings"`
}

// expectIP derives the answer for ip from the store directly.
func expectIP(st *footstore.Store, raw string) (ipAnswer, error) {
	ip, err := netmodel.ParseIP(raw)
	if err != nil {
		return ipAnswer{}, err
	}
	want := ipAnswer{IP: ip.String(), Hostings: []hostingAnswer{}}
	prefix, origins, ok := st.LookupIP(ip)
	if !ok {
		return want, nil
	}
	want.Mapped, want.Prefix = true, prefix.String()
	for _, as := range origins {
		want.ASNs = append(want.ASNs, uint32(as))
		for _, h := range st.HostingsOf(as) {
			want.Hostings = append(want.Hostings, hostingAnswer{
				HG: h.HG.String(), AS: uint32(h.AS), First: h.First.Label(), Last: h.Last.Label(), Current: h.Last == st.Latest(),
			})
		}
	}
	return want, nil
}

// verifyAnswer checks one sampled /v1/ip or batch answer against the
// store of the generation that answered.
func verifyAnswer(byGen []*footstore.Store, ans answer) error {
	if ans.gen == 0 || ans.gen >= uint64(len(byGen)) {
		return fmt.Errorf("%s answered from unknown generation %d", ans.req.Path, ans.gen)
	}
	st := byGen[ans.gen]
	ips := requestIPs(ans.req)
	var got []ipAnswer
	if ans.req.Kind == loadgen.KindBatch {
		var body struct {
			Count   int        `json:"count"`
			Results []ipAnswer `json:"results"`
		}
		if err := json.Unmarshal(ans.body, &body); err != nil {
			return fmt.Errorf("batch answer: %w", err)
		}
		if body.Count != len(ips) {
			return fmt.Errorf("batch of %d answered count %d", len(ips), body.Count)
		}
		got = body.Results
	} else {
		var one ipAnswer
		if err := json.Unmarshal(ans.body, &one); err != nil {
			return fmt.Errorf("%s answer: %w", ans.req.Path, err)
		}
		got = []ipAnswer{one}
	}
	if len(got) != len(ips) {
		return fmt.Errorf("%s: %d answers for %d IPs", ans.req.Path, len(got), len(ips))
	}
	for i, raw := range ips {
		want, err := expectIP(st, raw)
		if err != nil {
			return err
		}
		if got[i].Hostings == nil {
			got[i].Hostings = []hostingAnswer{}
		}
		if !reflect.DeepEqual(got[i], want) {
			return fmt.Errorf("%s at generation %d: got %+v, want %+v", raw, ans.gen, got[i], want)
		}
	}
	return nil
}

// generator is the single-process load generator: one persistent
// connection per worker.
type generator struct {
	base       string
	conns      []*conn
	closedNext atomic.Int64 // next closed-loop plan index, kept across blocks
}

// conn is one worker's connection and what it observed; only its own
// worker touches it while a phase runs.
type conn struct {
	client    *http.Client
	lastGen   uint64
	attempted int
	failed    map[string]int
	answers   []answer
	events    []respEvent
	seen      int // responses, for answer sampling
}

type answer struct {
	req  *loadgen.Request
	gen  uint64
	body []byte
}

type respEvent struct {
	done time.Time
	gen  uint64
}

func newGenerator(base string, n int) *generator {
	g := &generator{base: base}
	for range n {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		g.conns = append(g.conns, &conn{client: &http.Client{Transport: tr, Timeout: 10 * time.Second}, failed: map[string]int{}})
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.conns {
		c.client.CloseIdleConnections()
	}
}

// send issues one request and classifies the outcome. Failures are 5xx
// (429 and 504 included), transport errors, a status other than the
// request kind expects, and a generation older than one this connection
// already saw.
func (g *generator) send(ctx context.Context, c *conn, req *loadgen.Request) bool {
	c.attempted++
	var body io.Reader
	if req.Body != nil {
		body = bytes.NewReader(req.Body)
	}
	hreq, err := http.NewRequestWithContext(ctx, req.Method, g.base+req.Path, body)
	if err != nil {
		c.failed["bad request"]++
		return false
	}
	resp, err := c.client.Do(hreq)
	if err != nil {
		c.failed["transport"]++
		return false
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err != nil {
		c.failed["transport"]++
		return false
	}
	switch code := resp.StatusCode; {
	case code == http.StatusTooManyRequests:
		c.failed["http 429"]++
		return false
	case code >= 500:
		c.failed[fmt.Sprintf("http %d", code)]++
		return false
	case req.Kind == loadgen.KindMalformed:
		if code < 400 {
			c.failed["malformed request accepted"]++
			return false
		}
		return true
	case code != http.StatusOK:
		c.failed[fmt.Sprintf("http %d", code)]++
		return false
	}
	gen := generationOf(data)
	if gen < c.lastGen {
		c.failed["generation went backwards"]++
		return false
	}
	c.lastGen = gen
	c.events = append(c.events, respEvent{done, gen})
	if req.Kind == loadgen.KindIPHot || req.Kind == loadgen.KindIPCold || req.Kind == loadgen.KindBatch {
		if c.seen%sampleEvery == 0 {
			c.answers = append(c.answers, answer{req, gen, data})
		}
		c.seen++
	}
	return true
}

// openResult is the open-loop phase: one latency per scheduled request,
// timed from its scheduled send time (+Inf when it failed), and the
// generator's own lateness on sends that waited for their schedule.
type openResult struct {
	lat  []float64 // ms
	late []float64 // ms
}

// openLoop sends plan[i] at start + i/rate for dur, whatever the
// server's pace: a request due while every connection is busy waits,
// and that wait is part of its latency.
func (g *generator) openLoop(ctx context.Context, plan []loadgen.Request, rate float64, dur time.Duration) openResult {
	n := min(len(plan), max(1, int(rate*dur.Seconds())))
	interval := time.Duration(float64(time.Second) / rate)
	res := openResult{lat: make([]float64, n)}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range g.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var late []float64
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					break
				}
				due := start.Add(time.Duration(i) * interval)
				if time.Until(due) > 0 {
					sleepUntil(due)
					late = append(late, ms(time.Since(due)))
				}
				if g.send(ctx, c, &plan[i]) {
					res.lat[i] = ms(time.Since(due))
				} else {
					res.lat[i] = math.Inf(1) // misses any latency limit
				}
			}
			mu.Lock()
			res.late = append(res.late, late...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return res
}

// window is the closed loop's throughput sampling period.
const window = 250 * time.Millisecond

// closedResult is the closed-loop phase: completed lookups over its
// wall time, and the lookup rate of each window of it.
type closedResult struct {
	lookups, requests int
	elapsed           time.Duration
	windows           []float64 // lookups/s
}

// closedLoop keeps every connection busy for dur, each sending its next
// request as soon as the previous one completes; successive calls walk
// on through the plan.
func (g *generator) closedLoop(ctx context.Context, plan []loadgen.Request, dur time.Duration) closedResult {
	var lookups, requests atomic.Int64
	windows := make([]atomic.Int64, max(1, int(dur/window)))
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for _, c := range g.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) && ctx.Err() == nil {
				req := &plan[int(g.closedNext.Add(1)-1)%len(plan)]
				if g.send(ctx, c, req) {
					lookups.Add(int64(req.Items))
					if w := int(time.Since(start) / window); w < len(windows) {
						windows[w].Add(int64(req.Items))
					}
				}
				requests.Add(1)
			}
		}()
	}
	wg.Wait()
	res := closedResult{lookups: int(lookups.Load()), requests: int(requests.Load()), elapsed: time.Since(start)}
	for i := range windows {
		res.windows = append(res.windows, float64(windows[i].Load())/window.Seconds())
	}
	return res
}

// outcomes sums attempts and failures over the connections.
func (g *generator) outcomes() (int, map[string]int) {
	failed := map[string]int{}
	n := 0
	for _, c := range g.conns {
		n += c.attempted
		for k, v := range c.failed {
			failed[k] += v
		}
	}
	return n, failed
}

func (g *generator) sampled() []answer {
	var out []answer
	for _, c := range g.conns {
		out = append(out, c.answers...)
	}
	return out
}

func (g *generator) events() []respEvent {
	var out []respEvent
	for _, c := range g.conns {
		out = append(out, c.events...)
	}
	return out
}
