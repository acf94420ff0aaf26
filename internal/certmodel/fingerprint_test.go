package certmodel

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"time"

	"offnetscope/internal/rng"
)

// fmtFingerprint is the original fmt-based formulation of the
// fingerprint, kept as the reference the allocation-free version must
// reproduce bit for bit: stores, checkpoints and golden outputs key on
// these values.
func fmtFingerprint(c *Certificate) Fingerprint {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%s|%s|%s|%d|%d|%v|%d|%d|%v",
		c.SerialNumber,
		c.Subject.Organization, c.Subject.CommonName,
		c.Issuer.Organization, c.Issuer.CommonName,
		strings.Join(c.DNSNames, ","),
		c.NotBefore.Unix(), c.NotAfter.Unix(), c.IsCA,
		c.Key, c.SignedBy, c.Forged)
	fp := h.Sum64()
	if fp == 0 {
		fp = 1
	}
	return Fingerprint(fp)
}

func randomCert(r *rng.RNG) *Certificate {
	words := []string{"", "Google LLC", "*.google.com", "a,b", ",", "Akamai for Netflix", "ünïcode", "|", strings.Repeat("x", 300)}
	pick := func() string { return words[r.Intn(len(words))] }
	var names []string
	for n := r.Intn(4); n > 0; n-- {
		names = append(names, pick())
	}
	return &Certificate{
		SerialNumber: r.Uint64(),
		Subject:      Name{Organization: pick(), CommonName: pick()},
		Issuer:       Name{Organization: pick(), CommonName: pick()},
		DNSNames:     names,
		NotBefore:    time.Unix(int64(r.Uint64()>>1)-math.MaxInt64/2, 0),
		NotAfter:     time.Unix(int64(r.Uint32())-1<<31, 0),
		IsCA:         r.Bool(0.5),
		Key:          KeyID(r.Uint64()),
		SignedBy:     KeyID(r.Uint64()),
		Forged:       r.Bool(0.5),
	}
}

func TestFingerprintMatchesFmt(t *testing.T) {
	edge := []*Certificate{
		{},
		{DNSNames: []string{}},
		{DNSNames: []string{""}},
		{DNSNames: []string{"a,b", "c"}},
		{DNSNames: []string{"a", "b,c"}},
		{SerialNumber: math.MaxUint64, Key: math.MaxUint64, SignedBy: math.MaxUint64, IsCA: true, Forged: true},
		{NotBefore: time.Unix(-1, 0), NotAfter: time.Unix(math.MinInt64/2, 0)},
		{NotBefore: time.Unix(math.MaxInt64/2, 0).UTC(), NotAfter: time.Unix(0, 0).UTC()},
		{Subject: Name{Organization: "Google LLC", CommonName: "*.google.com", Country: "US"}, Issuer: Name{Organization: "|||"}},
		{DNSNames: []string{strings.Repeat("long.example,", 40)}}, // overflows the stack buffer
	}
	for i, c := range edge {
		if got, want := c.Fingerprint(), fmtFingerprint(c); got != want {
			t.Errorf("edge case %d: fingerprint %#x, fmt formulation %#x", i, got, want)
		}
	}
	r := rng.New(7)
	for i := 0; i < 5000; i++ {
		c := randomCert(r)
		if got, want := c.Fingerprint(), fmtFingerprint(c); got != want {
			t.Fatalf("random cert %d (%+v): fingerprint %#x, fmt formulation %#x", i, c, got, want)
		}
	}
}

func TestFingerprintAllocs(t *testing.T) {
	a, _ := testAuthority(t)
	leaf := a.IssueLeaf(leafSpec("Google LLC", "*.google.com", "*.googlevideo.com"))[0]
	allocs := testing.AllocsPerRun(100, func() {
		leaf.fingerprint.Store(0) // defeat the cache: hash every run
		leaf.Fingerprint()
	})
	if allocs != 0 {
		t.Fatalf("Fingerprint allocates %.1f times per call, want 0", allocs)
	}
}

// TestVerifyErrorStrings pins Error() for every Reason*: the detail is
// formatted lazily now, and must read exactly as the eagerly built
// message did.
func TestVerifyErrorStrings(t *testing.T) {
	a, store := testAuthority(t)
	other := NewAuthority("OtherPKI", 1, epoch, far, rng.New(2))
	ch := a.IssueLeaf(leafSpec("Google LLC", "*.google.com"))
	expired := leafSpec("Netflix, Inc.", "*.nflxvideo.net")
	expired.NotAfter = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	early := leafSpec("Google LLC", "*.google.com")
	early.NotBefore = time.Date(2025, 1, 1, 12, 30, 0, 0, time.UTC)
	forgedLeaf := ch[0].Clone()
	forgedLeaf.Forged = true
	forgedInter := ch[1].Clone()
	forgedInter.Forged = true
	notCA := ch[1].Clone()
	notCA.IsCA = false
	oldInter := ch[1].Clone()
	oldInter.NotAfter = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)

	const p = "certmodel: invalid chain: "
	for _, tc := range []struct {
		name  string
		chain Chain
		store *TrustStore
		want  string
	}{
		{"empty", nil, store, p + "empty-chain: no certificates presented"},
		{"expired", a.IssueLeaf(expired), store, p + "expired: leaf expired 2016-01-01T00:00:00Z"},
		{"not-yet-valid", a.IssueLeaf(early), store, p + "not-yet-valid: leaf valid from 2025-01-01T12:30:00Z"},
		{"self-signed", a.IssueSelfSigned(leafSpec("Evil", "x")), store, p + "self-signed-leaf: self-signed end-entity certificate"},
		{"forged leaf", Chain{forgedLeaf, ch[1], ch[2]}, store, p + "forged-signature: certificate 0 has an invalid signature"},
		{"forged intermediate", Chain{ch[0], forgedInter, ch[2]}, store, p + "forged-signature: certificate 1 has an invalid signature"},
		{"not CA", Chain{ch[0], notCA, ch[2]}, store, p + "intermediate-not-ca: certificate 1 signs but is not a CA"},
		{"expired intermediate", Chain{ch[0], oldInter, ch[2]}, store, p + "expired-intermediate: intermediate 1 outside validity window"},
		{"broken", Chain{ch[0], other.Intermediates[0], other.Root}, store, p + "broken-chain: certificate 0 not signed by certificate 1"},
		{"broken at root", Chain{ch[0], ch[1], other.Root}, store, p + "broken-chain: certificate 1 not signed by certificate 2"},
		{"untrusted", ch, NewTrustStore(), p + "untrusted-root: chain does not anchor at a trusted root"},
	} {
		err := Verify(tc.chain, mid, tc.store)
		if err == nil {
			t.Errorf("%s: chain verified", tc.name)
			continue
		}
		if got := err.Error(); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}
