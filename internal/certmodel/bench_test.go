package certmodel

import (
	"testing"
	"time"

	"offnetscope/internal/rng"
)

func benchChain(b *testing.B) (Chain, *TrustStore, time.Time) {
	b.Helper()
	from := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	a := NewAuthority("BenchCA", 4, from, to, rng.New(1))
	store := NewTrustStore()
	if err := store.AddRoot(a.Root); err != nil {
		b.Fatal(err)
	}
	ch := a.IssueLeaf(LeafSpec{
		Organization: "Google LLC", CommonName: "*.google.com",
		DNSNames:  []string{"*.google.com", "*.googlevideo.com", "*.gstatic.com"},
		NotBefore: from, NotAfter: to,
	})
	return ch, store, time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
}

// BenchmarkVerify measures §4.1 chain validation — executed once per
// corpus record, hundreds of thousands of times per snapshot.
func BenchmarkVerify(b *testing.B) {
	ch, store, at := benchChain(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(ch, at, store); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFingerprint(b *testing.B) {
	ch, _, _ := benchChain(b)
	leaf := ch.Leaf()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Clone defeats the cache so the hash itself is measured.
		if i%64 == 0 {
			leaf = ch.Leaf().Clone()
		}
		_ = leaf.Fingerprint()
	}
}
