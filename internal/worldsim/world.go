package worldsim

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"offnetscope/internal/astopo"
	"offnetscope/internal/bgpsim"
	"offnetscope/internal/certmodel"
	"offnetscope/internal/hg"
	"offnetscope/internal/rng"
	"offnetscope/internal/timeline"
)

// span is an inclusive deployment interval in snapshots.
type span struct {
	from, to timeline.Snapshot
}

func (s span) active(at timeline.Snapshot) bool { return at >= s.from && at <= s.to }

// serviceInfo describes a certs-only (service-present) deployment: the
// hypergiant's certificate is on a server in the AS, but the hardware
// belongs to via (a third-party CDN) or is a non-serving management
// interface (via == hg.None).
type serviceInfo struct {
	span
	via hg.ID
}

// World is the simulated ground-truth Internet.
type World struct {
	cfg   Config
	scale float64

	graph *astopo.Graph
	orgs  *astopo.OrgDB
	alloc *bgpsim.Allocator
	trust *certmodel.TrustStore

	caRoot    *certmodel.Certificate
	caInter   []*certmodel.Certificate
	rogueRoot *certmodel.Certificate // looks like a CA, not in the store
	rogueInt  *certmodel.Certificate

	onNet  map[hg.ID][]astopo.ASN
	hgOfAS map[astopo.ASN]hg.ID

	deployments map[hg.ID]map[astopo.ASN]span
	service     map[hg.ID]map[astopo.ASN]serviceInfo

	mu       sync.Mutex
	catCache map[timeline.Snapshot][]astopo.Category
	ip2as    map[timeline.Snapshot]*bgpsim.IP2AS

	// Minted-chain cache (certs.go): certificates are pure functions of
	// their chainKey, so every holder of "the same" certificate shares
	// one immutable Chain value instead of re-minting it per host per
	// scan. bgNames memoizes background hosts' period-free name strings.
	certMu  sync.RWMutex
	chains  map[chainKey]certmodel.Chain
	nameMu  sync.RWMutex
	bgNames map[uint64]bgName
}

// New builds a world from cfg, rejecting a config Validate refuses.
// Construction is deterministic in cfg.
func New(cfg Config) (*World, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &World{
		cfg:         cfg,
		scale:       cfg.Scale,
		onNet:       make(map[hg.ID][]astopo.ASN),
		hgOfAS:      make(map[astopo.ASN]hg.ID),
		deployments: make(map[hg.ID]map[astopo.ASN]span),
		service:     make(map[hg.ID]map[astopo.ASN]serviceInfo),
		catCache:    make(map[timeline.Snapshot][]astopo.Category),
		ip2as:       make(map[timeline.Snapshot]*bgpsim.IP2AS),
		chains:      make(map[chainKey]certmodel.Chain),
		bgNames:     make(map[uint64]bgName),
	}

	w.graph = astopo.Generate(astopo.GenConfig{
		Seed:      cfg.Seed,
		FinalASes: finalASes(cfg.Scale),
	})
	w.buildOrgsAndOnNets()

	alloc, err := bgpsim.NewAllocatorFunc(w.graph, cfg.Seed, w.planFor)
	if err != nil {
		return nil, fmt.Errorf("worldsim: %w", err)
	}
	w.alloc = alloc

	w.buildPKI()
	w.buildDeployments()
	return w, nil
}

// buildOrgsAndOnNets registers ISP organization names for every AS, then
// appends the hypergiants' own ASes to the graph with their WHOIS names
// (including historical renames, e.g. Google Inc. → Google LLC at
// 2017-04).
func (w *World) buildOrgsAndOnNets() {
	w.orgs = astopo.NewOrgDB()
	for i := 1; i <= w.graph.NumASes(); i++ {
		as := astopo.ASN(i)
		w.orgs.Set(as, w.graph.Born(as), fmt.Sprintf("%s Network Services %d", w.graph.Country(as), i))
	}
	renameAt := timeline.Snapshot(14) // 2017-04
	for _, h := range hg.All() {
		nASes := 1
		if hg.IsTop4(h.ID) || h.ID == hg.Amazon || h.ID == hg.Microsoft {
			nASes = 2
		}
		for k := 0; k < nASes; k++ {
			as := w.graph.AddAS("US", 0)
			w.orgs.Set(as, 0, h.OrgNames[0])
			if len(h.OrgNames) > 1 {
				w.orgs.Set(as, renameAt, h.OrgNames[len(h.OrgNames)-1])
			}
			w.onNet[h.ID] = append(w.onNet[h.ID], as)
			w.hgOfAS[as] = h.ID
		}
	}
}

// planFor gives hypergiant on-net ASes datacenter-sized address blocks.
func (w *World) planFor(as astopo.ASN) bgpsim.Plan {
	id, ok := w.hgOfAS[as]
	if !ok {
		return bgpsim.Plan{}
	}
	switch {
	case id == hg.Google || id == hg.Amazon:
		return bgpsim.Plan{Blocks: 4, Length: 13}
	case hg.IsTop4(id) || id == hg.Microsoft || id == hg.Cloudflare:
		return bgpsim.Plan{Blocks: 4, Length: 14}
	default:
		return bgpsim.Plan{Blocks: 2, Length: 16}
	}
}

// buildPKI creates the trusted WebPKI stand-in (one root, several
// intermediates) and a rogue CA whose chains must fail verification.
func (w *World) buildPKI() {
	rnd := rng.New(w.cfg.Seed).Fork("worldsim/pki")
	from := timeline.Snapshot(0).Time().AddDate(-10, 0, 0)
	to := timeline.Snapshot(timeline.Count()-1).Time().AddDate(10, 0, 0)
	auth := certmodel.NewAuthority("WebTrust Global CA", 4, from, to, rnd)
	w.caRoot = auth.Root
	w.caInter = auth.Intermediates
	w.trust = certmodel.NewTrustStore()
	if err := w.trust.AddRoot(w.caRoot); err != nil {
		panic(err) // unreachable: the root is a CA by construction
	}
	rogue := certmodel.NewAuthority("Shady Corp CA", 1, from, to, rnd)
	w.rogueRoot = rogue.Root
	w.rogueInt = rogue.Intermediates[0]
}

// targetCount scales a paper-sized AS count into this world.
func (w *World) targetCount(curve []anchor, s timeline.Snapshot) int {
	return w.scaleCount(interpolate(curve, s))
}

// scaleCount converts a paper-scale AS count into this world. Ceil keeps
// tiny footprints (Twitter's 4 ASes) visible at small scales.
func (w *World) scaleCount(v float64) int {
	if v <= 0 {
		return 0
	}
	return int(math.Ceil(v * w.scale))
}

// footprintTarget is the hosting-AS target of one footprint at s, after
// applying any scenario overrides: per-hypergiant trajectory reshaping
// on the off-net curve, and the customer-certificate boost on the
// service-present curve of certificate-issuing hypergiants.
func (w *World) footprintTarget(id hg.ID, st *strategy, s timeline.Snapshot, servicePresent bool) int {
	if servicePresent {
		v := interpolate(st.servicePresentASes, s)
		if st.cloudflareIssuer && w.cfg.CustomerCertBoost > 0 {
			v *= w.cfg.CustomerCertBoost
		}
		return w.scaleCount(v)
	}
	v := interpolate(st.offNetASes, s)
	if o, ok := w.cfg.Trajectories[id]; ok {
		if o.OffNetScale > 0 {
			v *= o.OffNetScale
		}
		v += o.flashAt(s)
	}
	return w.scaleCount(v)
}

// buildDeployments evolves every hypergiant's off-net and
// service-present footprints across the study window, snapshot-major so
// the co-location synergy (§6.6) can see all hypergiants' current state.
func (w *World) buildDeployments() {
	rnd := rng.New(w.cfg.Seed).Fork("worldsim/deploy")
	for _, h := range hg.All() {
		w.deployments[h.ID] = make(map[astopo.ASN]span)
		w.service[h.ID] = make(map[astopo.ASN]serviceInfo)
	}
	// hostCount tracks how many top-4 HGs each AS currently hosts.
	hostCount := make(map[astopo.ASN]int)
	last := timeline.Snapshot(timeline.Count() - 1)

	for _, s := range timeline.All() {
		cats := w.categories(s)
		eyeballs := w.eyeballASes(s)
		for _, h := range hg.All() {
			st := strategies[h.ID]
			w.evolveFootprint(h.ID, st, s, last, eyeballs, cats, hostCount, rnd, false)
			w.evolveFootprint(h.ID, st, s, last, eyeballs, cats, hostCount, rnd, true)
		}
	}
}

// eyeballASes returns the candidate hosting pool at s: every active AS
// that is not a hypergiant on-net AS.
func (w *World) eyeballASes(s timeline.Snapshot) []astopo.ASN {
	var out []astopo.ASN
	for i := 1; i <= w.graph.NumASes(); i++ {
		as := astopo.ASN(i)
		if !w.graph.Active(as, s) {
			continue
		}
		if _, isHG := w.hgOfAS[as]; isHG {
			continue
		}
		out = append(out, as)
	}
	return out
}

// categories returns (cached) per-AS size categories at s, indexed by
// ASN-1.
func (w *World) categories(s timeline.Snapshot) []astopo.Category {
	w.mu.Lock()
	defer w.mu.Unlock()
	if c, ok := w.catCache[s]; ok {
		return c
	}
	cats := make([]astopo.Category, w.graph.NumASes())
	for i := 1; i <= w.graph.NumASes(); i++ {
		if w.graph.Active(astopo.ASN(i), s) {
			cats[i-1] = w.graph.CategoryOf(astopo.ASN(i), s)
		}
	}
	w.catCache[s] = cats
	return cats
}

// evolveFootprint grows or shrinks one footprint (off-net or
// service-present) to its target size at snapshot s.
func (w *World) evolveFootprint(id hg.ID, st *strategy, s, last timeline.Snapshot, eyeballs []astopo.ASN, cats []astopo.Category, hostCount map[astopo.ASN]int, rnd *rng.RNG, servicePresent bool) {
	target := w.footprintTarget(id, st, s, servicePresent)

	var active []astopo.ASN
	if servicePresent {
		for as, info := range w.service[id] {
			if info.active(s) {
				active = append(active, as)
			}
		}
	} else {
		for as, sp := range w.deployments[id] {
			if sp.active(s) {
				active = append(active, as)
			}
		}
	}
	sort.Slice(active, func(i, j int) bool { return active[i] < active[j] })

	switch {
	case len(active) < target:
		need := target - len(active)
		chosen := w.pickHosts(id, st, s, eyeballs, cats, hostCount, rnd, need, servicePresent)
		for _, as := range chosen {
			if servicePresent {
				w.service[id][as] = serviceInfo{span: span{from: s, to: last}, via: w.pickVia(id, st, rnd)}
			} else {
				w.deployments[id][as] = span{from: s, to: last}
				if hg.IsTop4(id) {
					hostCount[as]++
				}
			}
		}
	case len(active) > target:
		drop := len(active) - target
		victims := w.pickVictims(st, s, active, cats, rnd, drop)
		for _, as := range victims {
			if servicePresent {
				info := w.service[id][as]
				info.to = s - 1
				w.service[id][as] = info
			} else {
				sp := w.deployments[id][as]
				sp.to = s - 1
				w.deployments[id][as] = sp
				if hg.IsTop4(id) {
					hostCount[as]--
				}
			}
		}
	}
}

// pickHosts selects need new hosting ASes for id at s, weighted by
// region (with the South-America ramp), size category, and co-location
// synergy.
func (w *World) pickHosts(id hg.ID, st *strategy, s timeline.Snapshot, eyeballs []astopo.ASN, cats []astopo.Category, hostCount map[astopo.ASN]int, rnd *rng.RNG, need int, servicePresent bool) []astopo.ASN {
	ramp := 1.0
	if st.southAmericaRamp > 1 {
		frac := float64(s) / float64(timeline.Count()-1)
		ramp = 1 + frac*(st.southAmericaRamp-1)
	}
	var pool []astopo.ASN
	var weights []float64
	for _, as := range eyeballs {
		if servicePresent {
			if info, ok := w.service[id][as]; ok && info.active(s) {
				continue
			}
			// Service-present ASes must be disjoint from the confirmed
			// footprint: a confirmed off-net already implies presence.
			if sp, ok := w.deployments[id][as]; ok && sp.active(s) {
				continue
			}
		} else {
			if _, ok := w.deployments[id][as]; ok {
				continue // hosts never rejoin after retirement
			}
		}
		wgt := 1.0
		if cont, ok := w.graph.ContinentOf(as); ok {
			wgt *= st.regionWeight[cont]
			if cont == astopo.SouthAmerica {
				wgt *= ramp
			}
		}
		wgt *= st.categoryWeight[cats[as-1]]
		wgt *= 1 + 1.2*float64(hostCount[as])
		if wgt <= 0 {
			continue
		}
		pool = append(pool, as)
		weights = append(weights, wgt)
	}
	out := make([]astopo.ASN, 0, need)
	for len(out) < need && len(pool) > 0 {
		i := rnd.WeightedPick(weights)
		out = append(out, pool[i])
		pool[i] = pool[len(pool)-1]
		weights[i] = weights[len(weights)-1]
		pool = pool[:len(pool)-1]
		weights = weights[:len(weights)-1]
	}
	return out
}

// pickVictims chooses which ASes lose the deployment when a footprint
// shrinks. Akamai-style consolidation retires Stub/Small ASes first,
// North America fastest.
func (w *World) pickVictims(st *strategy, s timeline.Snapshot, active []astopo.ASN, cats []astopo.Category, rnd *rng.RNG, drop int) []astopo.ASN {
	weights := make([]float64, len(active))
	for i, as := range active {
		wgt := 1.0
		if st.retireStubsFirst {
			switch cats[as-1] {
			case astopo.Stub:
				wgt = 12
			case astopo.Small:
				wgt = 5
			case astopo.Medium:
				wgt = 1
			default:
				wgt = 0.15
			}
			if cont, ok := w.graph.ContinentOf(as); ok && cont == astopo.NorthAmerica {
				wgt *= 3
			}
		}
		weights[i] = wgt
	}
	out := make([]astopo.ASN, 0, drop)
	pool := append([]astopo.ASN(nil), active...)
	for len(out) < drop && len(pool) > 0 {
		i := rnd.WeightedPick(weights)
		out = append(out, pool[i])
		pool[i] = pool[len(pool)-1]
		weights[i] = weights[len(weights)-1]
		pool = pool[:len(pool)-1]
		weights = weights[:len(weights)-1]
	}
	return out
}

// pickVia decides whose hardware carries a service-present certificate.
// It never returns id itself: a certificate on the hypergiant's own
// hardware would be a genuine off-net, not a service-present record.
func (w *World) pickVia(id hg.ID, st *strategy, rnd *rng.RNG) hg.ID {
	if len(st.usesThirdPartyCDN) > 0 {
		return st.usesThirdPartyCDN[rnd.Intn(len(st.usesThirdPartyCDN))]
	}
	if st.onPremManagement || st.cloudflareIssuer {
		return hg.None
	}
	// Other service-present records ride on Akamai, the dominant
	// third-party CDN (§5: 97% of cross-validating off-nets were Akamai).
	if id != hg.Akamai && rnd.Bool(0.7) {
		return hg.Akamai
	}
	return hg.None
}

// --- Accessors (ground truth; used by validation experiments) ---

// Graph returns the AS topology.
func (w *World) Graph() *astopo.Graph { return w.graph }

// Orgs returns the AS-to-organization registry.
func (w *World) Orgs() *astopo.OrgDB { return w.orgs }

// Alloc returns the address allocator.
func (w *World) Alloc() *bgpsim.Allocator { return w.alloc }

// TrustStore returns the WebPKI stand-in used to validate chains.
func (w *World) TrustStore() *certmodel.TrustStore { return w.trust }

// Config returns the configuration the world was built from.
func (w *World) Config() Config { return w.cfg }

// OnNetASes returns the hypergiant's own ASes.
func (w *World) OnNetASes(id hg.ID) []astopo.ASN { return w.onNet[id] }

// HGOfOnNetAS reports which hypergiant owns as, if any.
func (w *World) HGOfOnNetAS(as astopo.ASN) (hg.ID, bool) {
	id, ok := w.hgOfAS[as]
	return id, ok
}

// TrueOffNetASes returns the ground-truth confirmed off-net footprint of
// id at snapshot s, sorted.
func (w *World) TrueOffNetASes(id hg.ID, s timeline.Snapshot) []astopo.ASN {
	var out []astopo.ASN
	for as, sp := range w.deployments[id] {
		if sp.active(s) {
			out = append(out, as)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TrueServicePresentASes returns the ground-truth certs-only footprint
// (service present on third-party or management hardware), sorted.
func (w *World) TrueServicePresentASes(id hg.ID, s timeline.Snapshot) []astopo.ASN {
	var out []astopo.ASN
	for as, info := range w.service[id] {
		if info.active(s) {
			out = append(out, as)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IPv6Only reports whether as is an IPv6-only network: allocated and
// announced, with real deployments, but invisible to IPv4 scans.
func (w *World) IPv6Only(as astopo.ASN) bool {
	if w.cfg.IPv6OnlyASFrac <= 0 {
		return false
	}
	if _, isHG := w.hgOfAS[as]; isHG {
		return false
	}
	return float64(w.h(uint64(as), hstr("v6only"))%100000)/100000 < w.cfg.IPv6OnlyASFrac
}

// IP2AS returns the month's IP-to-AS table, built on first use from the
// simulated collector RIBs (appendix A.1 pipeline).
func (w *World) IP2AS(s timeline.Snapshot) *bgpsim.IP2AS {
	w.mu.Lock()
	if m, ok := w.ip2as[s]; ok {
		w.mu.Unlock()
		return m
	}
	w.mu.Unlock()
	m := bgpsim.BuildMonthly(w.graph, w.alloc, s, bgpsim.DefaultNoise(), w.cfg.Seed)
	w.mu.Lock()
	w.ip2as[s] = m
	w.mu.Unlock()
	return m
}
