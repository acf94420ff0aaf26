package core

import (
	"errors"
	"reflect"
	"testing"

	"offnetscope/internal/corpus"
)

// TestInferSnapshotStreamMatchesInferSnapshot pins chunk invariance at
// the unit level: the complete SnapshotInference — every Result field,
// the HTTP-only set, and the Netflix memory lookups — must be deeply
// equal to InferSnapshot's default-chunk inference at chunks of one
// and seven records per batch.
func TestInferSnapshotStreamMatchesInferSnapshot(t *testing.T) {
	snap := rapid7At(t, lastSnap)
	p := testPipeline(DefaultOptions())
	want := p.InferSnapshot(snap)
	if want.Result.TotalCertIPs != len(snap.Certs) || len(want.HTTPOnlyIPs) == 0 {
		t.Fatalf("default-chunk inference saw %d of %d certs, %d HTTP-only IPs",
			want.Result.TotalCertIPs, len(snap.Certs), len(want.HTTPOnlyIPs))
	}
	for _, chunk := range []int{1, 7} {
		got, err := p.InferSnapshotStream(corpus.StreamOf(snap, chunk))
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if !reflect.DeepEqual(got.Result, want.Result) {
			t.Errorf("chunk=%d: Result diverges from the default-chunk inference", chunk)
		}
		if !reflect.DeepEqual(got.HTTPOnlyIPs, want.HTTPOnlyIPs) {
			t.Errorf("chunk=%d: HTTPOnlyIPs diverge", chunk)
		}
		if !reflect.DeepEqual(got.NetflixLookups, want.NetflixLookups) {
			t.Errorf("chunk=%d: NetflixLookups diverge", chunk)
		}
	}
}

// TestInferSnapshotStreamSharded reruns the chunk equality with the
// batch validation split across 4 shards — the (chunk, shard) fold —
// against the unsharded default-chunk inference.
func TestInferSnapshotStreamSharded(t *testing.T) {
	snap := rapid7At(t, lastSnap)
	p := testPipeline(DefaultOptions())
	want := p.InferSnapshot(snap)
	p.Shards = 4
	for _, chunk := range []int{1, 7, 0} {
		got, err := p.InferSnapshotStream(corpus.StreamOf(snap, chunk))
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if !reflect.DeepEqual(got.Result, want.Result) {
			t.Errorf("chunk=%d shards=4: Result diverges", chunk)
		}
	}
}

// TestInferSnapshotStreamError pins stream-failure semantics: an error
// from any record stream aborts the inference and surfaces with the
// fixed certs-https-http precedence.
func TestInferSnapshotStreamError(t *testing.T) {
	snap := rapid7At(t, lastSnap)
	p := testPipeline(DefaultOptions())
	certErr := errors.New("certs damaged")
	httpErr := errors.New("http damaged")

	st := corpus.StreamOf(snap, 0)
	st.Certs = func(func([]corpus.CertRecord) error) error { return certErr }
	st.HTTP = func(func([]corpus.HeaderRecord) error) error { return httpErr }
	if _, err := p.InferSnapshotStream(st); err != certErr {
		t.Fatalf("got %v, want the certs error (file-order precedence)", err)
	}

	st = corpus.StreamOf(snap, 0)
	st.HTTP = func(func([]corpus.HeaderRecord) error) error { return httpErr }
	if _, err := p.InferSnapshotStream(st); err != httpErr {
		t.Fatalf("got %v, want the http error", err)
	}

	if _, err := p.RunStream(corpus.StreamOf(snap, 0)); err != nil {
		t.Fatalf("clean stream must not error: %v", err)
	}
}
