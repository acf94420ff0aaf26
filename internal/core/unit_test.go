package core

// Hand-crafted micro-corpus tests: every §4 rule exercised on records
// built by hand, with a toy IP-to-AS map — no simulator involved, so a
// failure here localizes the pipeline logic itself.

import (
	"testing"
	"time"

	"offnetscope/internal/astopo"
	"offnetscope/internal/certmodel"
	"offnetscope/internal/corpus"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/obs"
	"offnetscope/internal/rng"
	"offnetscope/internal/timeline"
)

// toyMapper is a fixed IP→AS map.
type toyMapper map[netmodel.IP][]astopo.ASN

func (m toyMapper) Lookup(ip netmodel.IP) []astopo.ASN { return m[ip] }

// toyWorld builds a minimal dataset: AS 1 is Google's on-net AS, ASes
// 2..9 are eyeballs.
type toyWorld struct {
	auth   *certmodel.Authority
	trust  *certmodel.TrustStore
	orgs   *astopo.OrgDB
	mapper toyMapper
	snap   *corpus.Snapshot
	at     timeline.Snapshot
}

func newToyWorld(t *testing.T) *toyWorld {
	t.Helper()
	from := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	tw := &toyWorld{
		auth:   certmodel.NewAuthority("ToyCA", 2, from, to, rng.New(9)),
		trust:  certmodel.NewTrustStore(),
		orgs:   astopo.NewOrgDB(),
		mapper: toyMapper{},
		at:     timeline.Snapshot(30),
	}
	if err := tw.trust.AddRoot(tw.auth.Root); err != nil {
		t.Fatal(err)
	}
	tw.orgs.Set(1, 0, "Google LLC")
	for as := astopo.ASN(2); as <= 9; as++ {
		tw.orgs.Set(as, 0, "Eyeball ISP")
	}
	tw.snap = &corpus.Snapshot{Vendor: corpus.Rapid7, Snapshot: tw.at}
	return tw
}

func (tw *toyWorld) leaf(org string, dns ...string) certmodel.Chain {
	return tw.auth.IssueLeaf(certmodel.LeafSpec{
		Organization: org, CommonName: dns[0], DNSNames: dns,
		NotBefore: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:  time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC),
	})
}

func (tw *toyWorld) addCert(ip uint32, as astopo.ASN, chain certmodel.Chain) {
	addr := netmodel.IP(ip)
	tw.mapper[addr] = []astopo.ASN{as}
	tw.snap.Certs = append(tw.snap.Certs, corpus.CertRecord{IP: addr, Chain: chain})
}

// addEyeballCerts adds n records serving chain from consecutive IPs
// starting at first, spread over the eyeball ASes 2..9.
func (tw *toyWorld) addEyeballCerts(n int, first uint32, chain certmodel.Chain) {
	for i := 0; i < n; i++ {
		tw.addCert(first+uint32(i), astopo.ASN(2+i%8), chain)
	}
}

func (tw *toyWorld) addHeaders(ip uint32, https bool, headers ...hg.Header) {
	rec := corpus.HeaderRecord{IP: netmodel.IP(ip), Headers: headers}
	if https {
		tw.snap.HTTPS = append(tw.snap.HTTPS, rec)
	} else {
		tw.snap.HTTP = append(tw.snap.HTTP, rec)
	}
}

func (tw *toyWorld) pipeline(opts Options) *Pipeline {
	return &Pipeline{
		Trust:  tw.trust,
		Orgs:   tw.orgs,
		Mapper: func(timeline.Snapshot) IPMapper { return tw.mapper },
		Opts:   opts,
	}
}

func TestUnitHappyPath(t *testing.T) {
	tw := newToyWorld(t)
	// On-net: AS 1 serves *.google.com + *.googlevideo.com.
	tw.addCert(100, 1, tw.leaf("Google LLC", "*.google.com", "*.googlevideo.com"))
	// Off-net in AS 2: subset of on-net names, gws header.
	tw.addCert(200, 2, tw.leaf("Google LLC", "*.googlevideo.com"))
	tw.addHeaders(200, true, hg.Header{Name: "Server", Value: "gws"})

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	g := res.PerHG[hg.Google]
	if len(g.OnNetASes) != 1 || g.OnNetASes[0] != 1 {
		t.Fatalf("on-net ASes = %v", g.OnNetASes)
	}
	if _, ok := g.DNSNames["*.googlevideo.com"]; !ok {
		t.Fatal("fingerprint missing googlevideo")
	}
	if len(g.CandidateASes) != 1 || len(g.ConfirmedASes) != 1 {
		t.Fatalf("candidates=%d confirmed=%d, want 1/1", len(g.CandidateASes), len(g.ConfirmedASes))
	}
	if _, ok := g.ConfirmedASes[2]; !ok {
		t.Fatal("AS 2 not confirmed")
	}
}

func TestUnitSubsetRuleRejectsForeignName(t *testing.T) {
	tw := newToyWorld(t)
	tw.addCert(100, 1, tw.leaf("Google LLC", "*.google.com"))
	// Candidate carries a name never seen on-net: a shared certificate.
	tw.addCert(200, 2, tw.leaf("Google LLC", "*.google.com", "*.partner.example"))
	tw.addHeaders(200, true, hg.Header{Name: "Server", Value: "gws"})

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	if n := len(res.PerHG[hg.Google].CandidateASes); n != 0 {
		t.Fatalf("shared cert accepted: %d candidates", n)
	}
	// Ablation: disabling the rule admits it.
	loose := tw.pipeline(Options{HeaderMode: HeadersEither, DisableDNSNameFilter: true}).Run(tw.snap)
	if n := len(loose.PerHG[hg.Google].CandidateASes); n != 1 {
		t.Fatalf("ablated pipeline should admit it: %d", n)
	}
}

func TestUnitOnNetExcludedFromCandidates(t *testing.T) {
	tw := newToyWorld(t)
	tw.addCert(100, 1, tw.leaf("Google LLC", "*.google.com"))
	tw.addCert(101, 1, tw.leaf("Google LLC", "*.google.com"))
	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	g := res.PerHG[hg.Google]
	if g.OnNetIPs != 2 {
		t.Fatalf("on-net IPs = %d", g.OnNetIPs)
	}
	if len(g.CandidateASes) != 0 {
		t.Fatal("on-net records must not be candidates")
	}
}

func TestUnitUnmappedIPSkipped(t *testing.T) {
	tw := newToyWorld(t)
	tw.addCert(100, 1, tw.leaf("Google LLC", "*.google.com"))
	// A record whose IP has no IP-to-AS mapping (the paper covers only
	// ~76% of routable space).
	addr := netmodel.IP(999)
	tw.snap.Certs = append(tw.snap.Certs, corpus.CertRecord{IP: addr, Chain: tw.leaf("Google LLC", "*.google.com")})

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	if n := len(res.PerHG[hg.Google].CandidateASes); n != 0 {
		t.Fatalf("unmapped record produced %d candidate ASes", n)
	}
}

func TestUnitSelfSignedExcluded(t *testing.T) {
	tw := newToyWorld(t)
	tw.addCert(100, 1, tw.leaf("Google LLC", "*.google.com"))
	imp := tw.auth.IssueSelfSigned(certmodel.LeafSpec{
		Organization: "Google LLC", CommonName: "*.google.com",
		DNSNames:  []string{"*.google.com"},
		NotBefore: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:  time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC),
	})
	tw.addCert(200, 2, imp)
	tw.addHeaders(200, true, hg.Header{Name: "Server", Value: "gws"})

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	if n := len(res.PerHG[hg.Google].CandidateASes); n != 0 {
		t.Fatalf("self-signed impostor accepted: %d", n)
	}
	if res.InvalidByReason[certmodel.ReasonSelfSigned] != 1 {
		t.Fatalf("invalid stats = %v", res.InvalidByReason)
	}
}

func TestUnitMOASAttributesAllOrigins(t *testing.T) {
	tw := newToyWorld(t)
	tw.addCert(100, 1, tw.leaf("Google LLC", "*.google.com"))
	chain := tw.leaf("Google LLC", "*.google.com")
	addr := netmodel.IP(300)
	tw.mapper[addr] = []astopo.ASN{3, 4} // MOAS prefix
	tw.snap.Certs = append(tw.snap.Certs, corpus.CertRecord{IP: addr, Chain: chain})
	tw.addHeaders(300, true, hg.Header{Name: "Server", Value: "gws"})

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	g := res.PerHG[hg.Google]
	if len(g.ConfirmedASes) != 2 {
		t.Fatalf("MOAS should confirm both origins, got %v", g.SortedConfirmedASes())
	}
}

func TestUnitNetflixNginxRule(t *testing.T) {
	tw := newToyWorld(t)
	tw.orgs.Set(10, 0, "Netflix, Inc.")
	tw.addCert(100, 10, tw.leaf("Netflix, Inc.", "*.nflxvideo.net"))
	tw.addCert(200, 2, tw.leaf("Netflix, Inc.", "*.nflxvideo.net"))
	tw.addHeaders(200, true, hg.Header{Name: "Server", Value: "nginx"})

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	if len(res.PerHG[hg.Netflix].ConfirmedASes) != 1 {
		t.Fatal("cert + default nginx should confirm Netflix")
	}
	// With the rule disabled, nginx alone confirms nothing.
	off := tw.pipeline(Options{HeaderMode: HeadersEither, DisableNetflixNginx: true}).Run(tw.snap)
	if len(off.PerHG[hg.Netflix].ConfirmedASes) != 0 {
		t.Fatal("disabled nginx rule still confirmed")
	}
	// But nginx must never confirm Google.
	if len(res.PerHG[hg.Google].ConfirmedASes) != 0 {
		t.Fatal("nginx confirmed a non-Netflix hypergiant")
	}
}

func TestUnitConflictPriority(t *testing.T) {
	tw := newToyWorld(t)
	tw.orgs.Set(11, 0, "Apple Inc.")
	tw.addCert(100, 11, tw.leaf("Apple Inc.", "*.apple.com"))
	// Apple cert on a box answering with BOTH Akamai and Apple headers —
	// a cache miss through an Akamai edge (§7).
	tw.addCert(200, 2, tw.leaf("Apple Inc.", "*.apple.com"))
	tw.addHeaders(200, true,
		hg.Header{Name: "Server", Value: "AkamaiGHost"},
		hg.Header{Name: "CDNUUID", Value: "abc"},
	)

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	if len(res.PerHG[hg.Apple].ConfirmedASes) != 0 {
		t.Fatal("edge-CDN conflict should suppress Apple confirmation")
	}
	loose := tw.pipeline(Options{HeaderMode: HeadersEither, DisableConflictPriority: true}).Run(tw.snap)
	if len(loose.PerHG[hg.Apple].ConfirmedASes) != 1 {
		t.Fatal("without priority the Apple header should confirm")
	}
}

func TestUnitCloudflareFilter(t *testing.T) {
	tw := newToyWorld(t)
	tw.orgs.Set(12, 0, "Cloudflare, Inc.")
	// Cloudflare's edge serves the universal certificate on-net...
	uni := tw.leaf("Cloudflare, Inc.", "sni12345.cloudflaressl.com", "*.customer.example")
	tw.addCert(100, 12, uni)
	// ...and the customer's origin in AS 2 serves the identical names.
	tw.addCert(200, 2, tw.leaf("Cloudflare, Inc.", "sni12345.cloudflaressl.com", "*.customer.example"))
	tw.addHeaders(200, true, hg.Header{Name: "Server", Value: "cloudflare"})

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	if n := len(res.PerHG[hg.Cloudflare].CandidateASes); n != 0 {
		t.Fatalf("universal cert survived the filter: %d", n)
	}
	loose := tw.pipeline(Options{HeaderMode: HeadersEither, DisableCloudflareFilter: true}).Run(tw.snap)
	if n := len(loose.PerHG[hg.Cloudflare].CandidateASes); n != 1 {
		t.Fatalf("without the filter the origin passes the subset rule: %d", n)
	}
}

func TestUnitExpiredTracking(t *testing.T) {
	tw := newToyWorld(t)
	tw.orgs.Set(10, 0, "Netflix, Inc.")
	tw.addCert(100, 10, tw.leaf("Netflix, Inc.", "*.nflxvideo.net"))
	expired := tw.auth.IssueLeaf(certmodel.LeafSpec{
		Organization: "Netflix, Inc.", CommonName: "*.nflxvideo.net",
		DNSNames:  []string{"*.nflxvideo.net"},
		NotBefore: time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:  time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC),
	})
	tw.addCert(200, 2, expired)

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	nf := res.PerHG[hg.Netflix]
	if len(nf.CandidateASes) != 0 {
		t.Fatal("expired cert must not be a candidate by default")
	}
	if len(nf.ExpiredASes) != 1 {
		t.Fatalf("expired evidence not tracked: %v", nf.ExpiredASes)
	}
	// The "w/ expired" envelope option promotes it to a candidate.
	env := tw.pipeline(Options{HeaderMode: CertsOnly, IgnoreExpiryFor: map[hg.ID]bool{hg.Netflix: true}}).Run(tw.snap)
	if len(env.PerHG[hg.Netflix].CandidateASes) != 1 {
		t.Fatal("IgnoreExpiryFor did not restore the expired off-net")
	}
}

func TestUnitHeaderModes(t *testing.T) {
	tw := newToyWorld(t)
	tw.addCert(100, 1, tw.leaf("Google LLC", "*.google.com"))
	// AS 2: HTTPS says gws, HTTP says nginx → Either yes, Both no.
	tw.addCert(200, 2, tw.leaf("Google LLC", "*.google.com"))
	tw.addHeaders(200, true, hg.Header{Name: "Server", Value: "gws"})
	tw.addHeaders(200, false, hg.Header{Name: "Server", Value: "nginx"})
	// AS 3: both ports say gws → Either and Both.
	tw.addCert(300, 3, tw.leaf("Google LLC", "*.google.com"))
	tw.addHeaders(300, true, hg.Header{Name: "Server", Value: "gws"})
	tw.addHeaders(300, false, hg.Header{Name: "Server", Value: "gws"})
	// AS 4: no header records at all → candidate only.
	tw.addCert(400, 4, tw.leaf("Google LLC", "*.google.com"))

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	g := res.PerHG[hg.Google]
	if len(g.CandidateASes) != 3 {
		t.Fatalf("candidates = %d", len(g.CandidateASes))
	}
	if len(g.ConfirmedByEitherASes) != 2 {
		t.Fatalf("either = %v", g.ConfirmedByEitherASes)
	}
	if len(g.ConfirmedByBothASes) != 1 {
		t.Fatalf("both = %v", g.ConfirmedByBothASes)
	}
	certsOnly := tw.pipeline(Options{HeaderMode: CertsOnly}).Run(tw.snap)
	if len(certsOnly.PerHG[hg.Google].ConfirmedASes) != 3 {
		t.Fatal("certs-only mode should confirm every candidate")
	}
}

func TestUnitOrgRenameTracked(t *testing.T) {
	tw := newToyWorld(t)
	// AS 1 was "Google Inc." until 2017-04, then "Google LLC".
	tw.orgs = astopo.NewOrgDB()
	tw.orgs.Set(1, 0, "Google Inc.")
	tw.orgs.Set(1, 14, "Google LLC")
	tw.addCert(100, 1, tw.leaf("Google LLC", "*.google.com"))

	// Organization matching spans the rename at any snapshot.
	for _, s := range []timeline.Snapshot{0, 14, 30} {
		tw.snap.Snapshot = s
		// Reissue a chain valid at the early scan time too.
		tw.snap.Certs[0].Chain = tw.auth.IssueLeaf(certmodel.LeafSpec{
			Organization: "Google LLC", CommonName: "*.google.com",
			DNSNames:  []string{"*.google.com"},
			NotBefore: time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC),
			NotAfter:  time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC),
		})
		res := tw.pipeline(DefaultOptions()).Run(tw.snap)
		if got := res.PerHG[hg.Google].OnNetASes; len(got) != 1 || got[0] != 1 {
			t.Fatalf("at %v on-net ASes = %v", s, got)
		}
	}
}

// TestValidateRangeAllocs pins step 1 at zero allocations per record
// once the scratch pool is warm: each record's hypergiant set is
// computed in place, never through a lowercased copy of its
// organization name.
func TestValidateRangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch at random under the race detector")
	}
	tw := newToyWorld(t)
	const n = 1000
	tw.addEyeballCerts(n, 1000, tw.leaf("Google LLC", "*.google.com"))
	p := tw.pipeline(DefaultOptions())
	at := tw.snap.ScanTime()
	var kept int
	// AllocsPerRun's warm-up call fills the pool with a sized scratch.
	allocs := testing.AllocsPerRun(20, func() {
		part := p.validateRange(tw.snap.Certs, at, tw.mapper)
		kept = len(part.records)
		p.putShardScratch(part)
	})
	if kept != n {
		t.Fatalf("validateRange kept %d of %d valid records", kept, n)
	}
	if allocs != 0 {
		t.Errorf("validateRange allocated %.0f objects over %d records, want 0", allocs, n)
	}
}

// TestUnitMultiHypergiantOrg follows one certificate whose organization
// names two hypergiants: each hypergiant's pass sees it, while the
// corpus-wide on/off-net split counts its IP once, under the lower ID.
func TestUnitMultiHypergiantOrg(t *testing.T) {
	tw := newToyWorld(t)
	tw.orgs.Set(10, 0, "Netflix, Inc.")
	tw.orgs.Set(13, 0, "Akamai Technologies, Inc.")
	tw.addCert(100, 10, tw.leaf("Netflix, Inc.", "*.nflxvideo.net", "*.shared.example"))
	tw.addCert(101, 13, tw.leaf("Akamai Technologies, Inc.", "*.akamaized.net", "*.shared.example"))
	shared := tw.leaf("Akamai for Netflix", "*.shared.example")
	tw.addCert(200, 2, shared) // off-net for both

	run := func() (*Result, obs.Snapshot) {
		reg := obs.NewRegistry("multi")
		p := tw.pipeline(Options{HeaderMode: CertsOnly})
		p.Metrics = reg
		return p.Run(tw.snap), reg.Snapshot()
	}
	res, m := run()
	for _, id := range []hg.ID{hg.Netflix, hg.Akamai} {
		if _, ok := res.PerHG[id].CandidateASes[2]; !ok {
			t.Errorf("%v pass missed the shared certificate: candidates %v", id, res.PerHG[id].SortedCandidateASes())
		}
	}
	if got := m.Counter("funnel.hg_cert_matches"); got != 2 {
		t.Errorf("funnel.hg_cert_matches = %d, want 2 (once per hypergiant)", got)
	}
	if res.HGOnNetCertIPs != 2 || res.HGOffNetCertIPs != 1 {
		t.Errorf("on/off-net cert IPs = %d/%d, want 2/1", res.HGOnNetCertIPs, res.HGOffNetCertIPs)
	}

	// The same certificate inside Akamai's AS: Akamai's pass counts it
	// on-net, but the corpus-wide split judges it by Netflix, the lower
	// ID, for which AS 13 is off-net.
	tw.addCert(300, 13, shared)
	res, _ = run()
	if got := res.PerHG[hg.Akamai].OnNetIPs; got != 2 {
		t.Errorf("Akamai on-net IPs = %d, want 2", got)
	}
	if _, ok := res.PerHG[hg.Netflix].CandidateASes[13]; !ok {
		t.Errorf("Netflix candidates %v miss AS 13", res.PerHG[hg.Netflix].SortedCandidateASes())
	}
	if res.HGOnNetCertIPs != 2 || res.HGOffNetCertIPs != 2 {
		t.Errorf("on/off-net cert IPs = %d/%d, want 2/2", res.HGOnNetCertIPs, res.HGOffNetCertIPs)
	}
}
