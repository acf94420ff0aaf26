package corpus

import (
	"bytes"
	"compress/gzip"
	"strings"
	"testing"
)

// gzipped compresses raw NDJSON for seeding the fuzzer.
func gzipped(t testing.TB, raw string) []byte {
	t.Helper()
	var buf bytes.Buffer
	gw := gzip.NewWriter(&buf)
	if _, err := gw.Write([]byte(raw)); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeChunked runs the same NDJSON stream through the chunked cert
// decoder (the readCertChunks shape: one per-file certDecoder, one
// reused batch buffer) and materializes the yielded batches.
func decodeChunked(input []byte, opts ReadOptions, chunk int) ([]CertRecord, *FileStats, error) {
	gz, err := gzip.NewReader(bytes.NewReader(input))
	if err != nil {
		return nil, nil, err
	}
	defer gz.Close()
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	dec := newCertDecoder()
	var batch, out []CertRecord
	fs := &FileStats{Name: "fuzz"}
	derr := decodeNDJSON(gz, "fuzz", opts, fs, func(line []byte) error {
		rec, err := dec.decode(line)
		if err != nil {
			return err
		}
		batch = append(batch, rec)
		if len(batch) == chunk {
			out = append(out, batch...)
			batch = batch[:0]
		}
		return nil
	})
	out = append(out, batch...)
	return out, fs, derr
}

// sameCertRecords compares decoded cert records by IP and per-link
// fingerprint — structural equality without tripping over the lazily
// memoized fingerprint cache inside Certificate.
func sameCertRecords(a, b []CertRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IP != b[i].IP || len(a[i].Chain) != len(b[i].Chain) {
			return false
		}
		for j := range a[i].Chain {
			if a[i].Chain[j].Fingerprint() != b[i].Chain[j].Fingerprint() {
				return false
			}
		}
	}
	return true
}

func sameFileStats(a, b *FileStats) bool {
	if a.Records != b.Records || a.Skipped != b.Skipped || len(a.Reasons) != len(b.Reasons) {
		return false
	}
	for r, n := range a.Reasons {
		if b.Reasons[r] != n {
			return false
		}
	}
	return true
}

// FuzzCorpusRead throws arbitrary bytes at the NDJSON+gzip decode path
// (mirroring FuzzFootstoreDecode): corrupt input must produce an error
// or a clean skip — never a panic — in both strict and tolerant mode,
// and tolerant accounting must stay consistent with what was decoded.
// Every input additionally runs at chunk sizes 1, 7, and the default,
// which must reproduce the unchunked records, stats, and error exactly
// — the determinism contract that makes the chunk size an execution
// knob rather than a semantic one.
func FuzzCorpusRead(f *testing.F) {
	valid := gzipped(f,
		`{"ip":"1.2.3.4","chain":[{"serial":1,"subject_org":"Google LLC","key":1,"signed_by":2}]}`+"\n"+
			`{"ip":"5.6.7.8","chain":[]}`+"\n")
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(gzipped(f, "not json at all\n{\"ip\":\"bad\"}\n"))
	f.Add(gzipped(f, ""))
	f.Add([]byte("not gzip"))
	f.Add([]byte{})
	f.Add([]byte{0x1f, 0x8b}) // bare gzip magic
	// Corruption landing exactly on a chunk boundary: with chunk size 7,
	// line 7 closes the first batch and line 8 opens the next — both are
	// malformed, so the skip accounting straddles the batch flush.
	boundary := make([]string, 0, 9)
	for i := 0; i < 6; i++ {
		boundary = append(boundary, `{"ip":"1.2.3.4","chain":[]}`)
	}
	boundary = append(boundary, "corrupt at batch close", "{corrupt at batch open", `{"ip":"5.6.7.8","chain":[]}`)
	f.Add(gzipped(f, strings.Join(boundary, "\n")+"\n"))

	f.Fuzz(func(t *testing.T, input []byte) {
		for _, opts := range []ReadOptions{
			{},
			{Tolerant: true},
			{Tolerant: true, MaxBadFraction: 1},
		} {
			if _, err := gzip.NewReader(bytes.NewReader(input)); err != nil {
				continue
			}
			// A chunk larger than any seed is the unchunked reference.
			certs, fs, err := decodeChunked(input, opts, 1<<20)
			if fs.Records != len(certs) {
				t.Fatalf("accounting drift: %d records counted, %d decoded", fs.Records, len(certs))
			}
			if !opts.Tolerant && fs.Skipped != 0 {
				t.Fatalf("strict mode skipped %d records", fs.Skipped)
			}
			if err == nil && opts.Tolerant {
				total := fs.Records + fs.Skipped
				if total > 0 && float64(fs.Skipped) > opts.budget()*float64(total) {
					t.Fatalf("accepted a file over budget: %s", fs)
				}
			}

			for _, chunk := range []int{1, 7, 0} {
				recs, cfs, cerr := decodeChunked(input, opts, chunk)
				if (cerr == nil) != (err == nil) || (cerr != nil && cerr.Error() != err.Error()) {
					t.Fatalf("chunk=%d error diverged: %v vs %v", chunk, cerr, err)
				}
				if !sameFileStats(fs, cfs) {
					t.Fatalf("chunk=%d stats diverged: %s vs %s", chunk, cfs, fs)
				}
				if !sameCertRecords(certs, recs) {
					t.Fatalf("chunk=%d decoded %d records, unchunked %d", chunk, len(recs), len(certs))
				}
			}
		}
	})
}
