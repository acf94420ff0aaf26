// Package waves runs supervised scan waves for the continuous-
// measurement daemon (cmd/offnetwatchd): each wave probes a fixed
// target list with the live scanner (internal/probe), applies the §4
// inference steps per target, folds the confirmed off-nets into the
// longitudinal builder, and commits the result as one new generation
// in the append-only generation log (footstore.GenLog).
//
// Waves are crash-only and degrade instead of aborting:
//
//   - a per-wave deadline bounds the whole wave; a wave that ran out of
//     time (or concluded fewer targets than MinCoverage) still commits,
//     with a "reduced-coverage" verdict, mirroring offnetmap's
//     degraded-mode semantics;
//   - per-target retry/backoff and circuit breakers come from the
//     scanner's own resilience kit (probe.Config);
//   - progress is checkpointed batch-by-batch through runstate blobs,
//     so a SIGKILL mid-wave resumes the wave where it stopped instead
//     of re-probing concluded targets;
//   - only a wave that concluded nothing at all fails (ErrWaveFailed) —
//     the daemon logs it and tries again next interval.
//
// The timeline grid is finite (31 quarterly snapshots); each committed
// wave occupies the next free snapshot, and ErrGridExhausted tells the
// daemon the study window is full.
package waves

import (
	"context"
	"errors"
	"fmt"
	"time"

	"offnetscope/internal/astopo"
	"offnetscope/internal/footstore"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/obs"
	"offnetscope/internal/probe"
	"offnetscope/internal/timeline"
)

// Target is one scan destination with its (known) origin AS — the live
// analogue of a cert-corpus row already resolved through the IP-to-AS
// table.
type Target struct {
	Addr string // host:port to probe
	AS   astopo.ASN
}

// PrefixRow seeds the store's IP-to-AS table when the log starts empty.
type PrefixRow struct {
	Prefix  netmodel.Prefix
	Origins []astopo.ASN
}

// Config tunes the wave runner.
type Config struct {
	// Probe configures the scanner (concurrency, rate, retries,
	// breakers). Its Metrics field is overridden with Config.Metrics.
	Probe probe.Config
	// Hypergiants to infer per wave. Empty means hg.Top4().
	Hypergiants []hg.ID
	// WaveTimeout bounds one whole wave. Zero means 2m.
	WaveTimeout time.Duration
	// MinCoverage is the concluded-target fraction below which a wave
	// commits with a reduced-coverage verdict. Zero means 0.5.
	MinCoverage float64
	// CheckpointDir holds mid-wave progress blobs (runstate). Empty
	// disables checkpointing; a killed wave then restarts from scratch.
	CheckpointDir string
	// BatchSize is how many targets are probed between checkpoints.
	// Zero means 16.
	BatchSize int
	// Prefixes is installed into the builder when the log is empty.
	Prefixes []PrefixRow
	// Metrics receives waves.* accounting. Nil discards.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if len(c.Hypergiants) == 0 {
		c.Hypergiants = hg.Top4()
	}
	if c.WaveTimeout <= 0 {
		c.WaveTimeout = 2 * time.Minute
	}
	if c.MinCoverage <= 0 {
		c.MinCoverage = 0.5
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	c.Probe.Metrics = c.Metrics
	return c
}

// Wave verdicts.
const (
	VerdictFull    = "full"
	VerdictReduced = "reduced-coverage"
)

// ErrGridExhausted means every snapshot slot of the timeline grid holds
// a committed generation; the study window is complete.
var ErrGridExhausted = errors.New("waves: timeline grid exhausted")

// ErrWaveFailed means a wave concluded zero targets — nothing to
// commit. The wave's checkpoint is cleared so the retry re-probes
// everything.
var ErrWaveFailed = errors.New("waves: wave concluded no targets")

// Result summarises one committed wave.
type Result struct {
	Generation uint64            // generation the wave committed as
	Snapshot   timeline.Snapshot // grid slot the wave filled
	Verdict    string            // VerdictFull or VerdictReduced
	Targets    int               // targets in the wave
	Concluded  int               // targets that yielded a verdict
	Failed     int               // targets whose probes never succeeded
	Confirmed  int               // off-net confirmations across hypergiants
	Resumed    int               // outcomes restored from the checkpoint
	TimedOut   bool              // the wave deadline expired
	Elapsed    time.Duration
}

// Runner drives scan waves against one target list, committing each
// into the generation log. Not safe for concurrent use.
type Runner struct {
	log     *footstore.GenLog
	targets []Target
	cfg     Config
	scanner *probe.Scanner

	builder *footstore.Builder
	next    timeline.Snapshot
	// dirty marks the builder as possibly diverged from the log (an
	// append failed after AddSnapshot); the next wave rebuilds it from
	// the newest committed generation before trusting it.
	dirty bool
}

// NewRunner builds a runner. When the log already holds generations,
// the builder — and the next free snapshot slot — are reconstructed
// from the newest committed one, so a restarted daemon continues the
// timeline instead of restarting it.
func NewRunner(log *footstore.GenLog, targets []Target, cfg Config) (*Runner, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("waves: no targets")
	}
	cfg = cfg.withDefaults()
	r := &Runner{
		log:     log,
		targets: append([]Target(nil), targets...),
		cfg:     cfg,
		scanner: probe.New(cfg.Probe),
	}
	if err := r.rebuild(); err != nil {
		r.scanner.Close()
		return nil, err
	}
	return r, nil
}

// rebuild derives the builder and next slot from the log's committed
// state — used at startup and after a failed append.
func (r *Runner) rebuild() error {
	if r.log.Len() == 0 {
		b := footstore.NewBuilder()
		for _, p := range r.cfg.Prefixes {
			b.AddPrefix(p.Prefix, p.Origins)
		}
		r.builder, r.next, r.dirty = b, 0, false
		return nil
	}
	st, err := r.log.Load(r.log.Last())
	if err != nil {
		return fmt.Errorf("waves: rebuilding from generation %d: %w", r.log.Last(), err)
	}
	r.builder = footstore.NewBuilderFrom(st)
	r.next = st.Latest() + 1
	r.dirty = false
	return nil
}

// NextSnapshot returns the grid slot the next wave will fill.
func (r *Runner) NextSnapshot() timeline.Snapshot { return r.next }

// Close releases the scanner.
func (r *Runner) Close() { r.scanner.Close() }

// outcome is one target's verdict within a wave.
type outcome struct {
	Addr      string `json:"addr"`
	AS        uint32 `json:"as"`
	Concluded bool   `json:"concluded"`
	HG        int    `json:"hg,omitempty"` // 0 = concluded, no hypergiant
}

// RunWave runs one supervised wave: probe, infer, commit. A context
// cancellation from the caller (daemon shutdown) returns ctx.Err() with
// the checkpoint retained; the wave deadline expiring merely degrades
// the verdict.
func (r *Runner) RunWave(ctx context.Context) (*Result, error) {
	if !r.next.Valid() {
		return nil, ErrGridExhausted
	}
	if r.dirty {
		if err := r.rebuild(); err != nil {
			return nil, err
		}
		if !r.next.Valid() {
			return nil, ErrGridExhausted
		}
	}
	start := time.Now()
	r.cfg.Metrics.Counter("waves.started").Inc()

	wctx, cancel := context.WithTimeout(ctx, r.cfg.WaveTimeout)
	defer cancel()

	outcomes, resumed := r.loadCheckpoint()
	r.cfg.Metrics.Counter("waves.resumed_targets").Add(int64(resumed))

	// Probe in deterministic batches, checkpointing after each, so a
	// kill loses at most one batch of work.
	var pending []Target
	for _, t := range r.targets {
		if _, done := outcomes[t.Addr]; !done {
			pending = append(pending, t)
		}
	}
	for len(pending) > 0 && wctx.Err() == nil {
		n := r.cfg.BatchSize
		if n > len(pending) {
			n = len(pending)
		}
		batch := pending[:n]
		pending = pending[n:]
		batchOut := r.probeBatch(wctx, batch)
		if wctx.Err() != nil && batchOut == nil {
			// The deadline or a shutdown landed mid-batch; its results
			// are partial and untrustworthy. Drop them.
			break
		}
		for _, o := range batchOut {
			outcomes[o.Addr] = o
		}
		if err := r.saveCheckpoint(outcomes); err != nil {
			return nil, err
		}
	}

	if err := ctx.Err(); err != nil {
		// Daemon shutdown, not a wave timeout: leave the checkpoint for
		// the next incarnation and surface the cancellation.
		return nil, err
	}

	res := &Result{
		Snapshot: r.next,
		Targets:  len(r.targets),
		Resumed:  resumed,
		TimedOut: wctx.Err() != nil,
	}
	footprints := make(map[hg.ID][]astopo.ASN)
	for _, t := range r.targets {
		o, ok := outcomes[t.Addr]
		if !ok {
			continue // never reached before the deadline
		}
		if !o.Concluded {
			res.Failed++
			continue
		}
		res.Concluded++
		if o.HG != 0 {
			footprints[hg.ID(o.HG)] = append(footprints[hg.ID(o.HG)], astopo.ASN(o.AS))
			res.Confirmed++
		}
	}
	r.cfg.Metrics.Counter("waves.targets_probed").Add(int64(res.Concluded + res.Failed))
	r.cfg.Metrics.Counter("waves.targets_failed").Add(int64(res.Failed))
	r.cfg.Metrics.Counter("waves.targets_confirmed").Add(int64(res.Confirmed))

	if res.Concluded == 0 {
		// Nothing trustworthy at all — do not commit an empty wave.
		r.clearCheckpoint()
		r.cfg.Metrics.Counter("waves.failed").Inc()
		return nil, ErrWaveFailed
	}

	coverage := float64(res.Concluded) / float64(res.Targets)
	res.Verdict = VerdictFull
	if res.TimedOut || coverage < r.cfg.MinCoverage {
		res.Verdict = VerdictReduced
	}

	if err := r.builder.AddSnapshot(r.next, footprints); err != nil {
		r.dirty = true
		return nil, fmt.Errorf("waves: %w", err)
	}
	st, err := r.builder.Build()
	if err != nil {
		r.dirty = true
		return nil, fmt.Errorf("waves: %w", err)
	}
	gen, err := r.log.Append(st)
	if err != nil {
		r.dirty = true
		return nil, fmt.Errorf("waves: committing wave %s: %w", r.next.Label(), err)
	}
	res.Generation = gen
	r.clearCheckpoint()
	r.next++

	res.Elapsed = time.Since(start)
	r.cfg.Metrics.Counter("waves.committed").Inc()
	if res.Verdict == VerdictReduced {
		r.cfg.Metrics.Counter("waves.reduced").Inc()
	}
	r.cfg.Metrics.Histogram("waves.duration_ns").Since(start)
	r.cfg.Metrics.Gauge("waves.generation").Set(int64(gen))
	return res, nil
}

// probeBatch probes one batch and applies the §4 steps per target:
// default-cert sweep (§4.1–§4.3 roles), then header confirmation
// (§4.5) for hypergiant-org candidates. Returns nil when the context
// died mid-batch and the results cannot be trusted.
func (r *Runner) probeBatch(ctx context.Context, batch []Target) []outcome {
	addrs := make([]string, len(batch))
	for i, t := range batch {
		addrs[i] = t.Addr
	}
	certs := r.scanner.FetchCerts(ctx, addrs)
	if ctx.Err() != nil {
		return nil
	}
	out := make([]outcome, 0, len(batch))
	for i, t := range batch {
		cr := certs[i]
		o := outcome{Addr: t.Addr, AS: uint32(t.AS)}
		if cr.Err == nil {
			o.Concluded = true
			if id, ok := r.classify(ctx, t.Addr, cr); ok {
				o.HG = int(id)
			}
		}
		if ctx.Err() != nil {
			return nil // header confirmation was cut short
		}
		out = append(out, o)
	}
	return out
}

// classify decides whether one probed target is a confirmed off-net of
// any configured hypergiant: organization keyword match on the leaf
// (§4.1), a chain that verifies (§4.1's invalid-cert rejection), and a
// header fingerprint match when the hypergiant defines one (§4.5).
func (r *Runner) classify(ctx context.Context, addr string, cr probe.CertResult) (hg.ID, bool) {
	hgs := hg.MatchOrg(cr.LeafOrganization())
	for _, id := range r.cfg.Hypergiants {
		h := hg.Get(id)
		if h == nil || !hgs.Has(id) {
			continue
		}
		if !cr.Valid {
			return 0, false // impostor: right org string, broken chain
		}
		if !h.HasFingerprints() {
			return id, true
		}
		host := ""
		if len(h.Domains) > 0 {
			host = hg.ConcreteDomain(h.Domains[0])
		}
		hres := r.scanner.FetchHeaders(ctx, []string{addr}, host, true)
		if hres[0].Err == nil && h.MatchesHeaders(hres[0].Headers) {
			return id, true
		}
		return 0, false // candidate, header confirmation failed
	}
	return 0, false
}
