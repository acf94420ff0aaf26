package corpus

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"offnetscope/internal/timeline"
)

// DefaultChunkSize is the record-batch size the streaming read path
// yields when ReadOptions.ChunkSize is unset. Large enough that the
// shard workers amortize their fan-out, small enough that a batch of
// fully decoded records stays in cache-friendly territory.
const DefaultChunkSize = 4096

// Stream is the chunked read path over one vendor-month: instead of
// materializing a Snapshot's record slices, each file is exposed as a
// consume function that decodes the NDJSON stream in place and yields
// fixed-size record batches. Memory stays bounded by the chunk size
// (plus the per-read intern tables), however large the month is.
//
// Contract, shared by every producer (OpenStream, StreamOf,
// scanners.ScanStream):
//
//   - Batches arrive in record order — chunk N+1's records follow chunk
//     N's in file order. A consumer that folds batches in arrival order
//     gets the same result byte for byte at any chunk size.
//   - The batch slice is only valid during the yield call: producers
//     reuse it. Consumers copy what they retain — the records' contents
//     (chain pointers, header slices) are freshly decoded and safe to
//     keep; the []CertRecord / []HeaderRecord slice itself is not.
//   - A non-nil error from yield aborts the stream and is returned
//     verbatim from the consume function, never recorded as decode
//     damage or counted against the error budget.
//   - Each consume function may be called at most once.
type Stream struct {
	Vendor   Vendor
	Snapshot timeline.Snapshot

	// Stats carries the per-file read accounting (nil for StreamOf).
	// The counts fill in as the consume functions run and are complete
	// once all three have returned.
	Stats *ReadStats

	Certs func(yield func([]CertRecord) error) error
	HTTPS func(yield func([]HeaderRecord) error) error
	HTTP  func(yield func([]HeaderRecord) error) error
}

// ScanTime is the instant certificates are validated against —
// mid-month, matching Snapshot.ScanTime.
func (st *Stream) ScanTime() time.Time { return st.Snapshot.MidTime() }

// StreamOf adapts an in-memory snapshot to the streaming interface,
// yielding zero-copy subslice batches of chunk records each
// (DefaultChunkSize when chunk <= 0). It is how scanner-generated
// corpuses and in-memory callers drive the pipeline without a disk
// round-trip; it records no stats and emits no metrics. A nil snapshot
// yields a nil stream, the StreamSource convention for a month the
// vendor doesn't cover.
func StreamOf(snap *Snapshot, chunk int) *Stream {
	if snap == nil {
		return nil
	}
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	return &Stream{
		Vendor:   snap.Vendor,
		Snapshot: snap.Snapshot,
		Certs:    func(yield func([]CertRecord) error) error { return yieldChunks(snap.Certs, chunk, yield) },
		HTTPS:    func(yield func([]HeaderRecord) error) error { return yieldChunks(snap.HTTPS, chunk, yield) },
		HTTP:     func(yield func([]HeaderRecord) error) error { return yieldChunks(snap.HTTP, chunk, yield) },
	}
}

func yieldChunks[T any](recs []T, chunk int, yield func([]T) error) error {
	for lo := 0; lo < len(recs); lo += chunk {
		hi := min(lo+chunk, len(recs))
		if err := yield(recs[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// OpenStream opens a persisted vendor-month for chunked reading; it is
// the one read path from disk. Strict mode fails on the first
// malformed record; tolerant mode skips and counts malformed records
// within the per-file error budget, which aborts at exactly the skip
// that exceeds it. All three files are stat'd up front so a month the
// vendor doesn't cover fails here with fs.ErrNotExist rather than
// mid-consumption.
//
// The read's corpus.* metrics are recorded once, after all three
// consume functions have completed; a consumer that abandons a stream
// forfeits that read's accounting. Error precedence across files
// follows the fixed file order (certs, https, http).
func OpenStream(root string, vendor Vendor, s timeline.Snapshot, opts ReadOptions) (*Stream, error) {
	start := time.Now()
	dir := Dir(root, vendor, s)
	stats := &ReadStats{}
	certFS := stats.file("certs.ndjson.gz")
	httpsFS := stats.file("https_headers.ndjson.gz")
	httpFS := stats.file("http_headers.ndjson.gz")
	for _, fs := range stats.Files {
		if _, err := os.Stat(filepath.Join(dir, fs.Name)); err != nil {
			err = fmt.Errorf("corpus: %w", err)
			recordReadMetrics(opts.Metrics, start, stats, err)
			return nil, err
		}
	}
	chunk := opts.ChunkSize
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	fin := &streamFinalizer{start: start, stats: stats, opts: opts, left: 3}
	st := &Stream{Vendor: vendor, Snapshot: s, Stats: stats}
	st.Certs = func(yield func([]CertRecord) error) error {
		err := readCertChunks(filepath.Join(dir, certFS.Name), opts, certFS, chunk, yield)
		fin.done(0, err)
		return err
	}
	st.HTTPS = func(yield func([]HeaderRecord) error) error {
		err := readHeaderChunks(filepath.Join(dir, httpsFS.Name), opts, httpsFS, chunk, yield)
		fin.done(1, err)
		return err
	}
	st.HTTP = func(yield func([]HeaderRecord) error) error {
		err := readHeaderChunks(filepath.Join(dir, httpFS.Name), opts, httpFS, chunk, yield)
		fin.done(2, err)
		return err
	}
	return st, nil
}

// streamFinalizer fires the one-shot read accounting when the last of
// the three file consumers finishes, whatever order (or goroutines)
// they ran on. Error precedence is by file index, not completion order.
type streamFinalizer struct {
	start time.Time
	stats *ReadStats
	opts  ReadOptions

	mu   sync.Mutex
	left int
	errs [3]error
}

func (f *streamFinalizer) done(i int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.errs[i] = err
	if f.left--; f.left > 0 {
		return
	}
	first := error(nil)
	for _, e := range f.errs {
		if e != nil {
			first = e
			break
		}
	}
	recordReadMetrics(f.opts.Metrics, f.start, f.stats, first)
}

// yieldError marks an error returned by a stream consumer's yield so
// decodeNDJSON can tell a consumer abort apart from record damage and
// propagate it verbatim.
type yieldError struct{ err error }

func (e *yieldError) Error() string { return e.err.Error() }
func (e *yieldError) Unwrap() error { return e.err }

// readCertChunks drives one certs file through the shared per-record
// decoder, accumulating records into a single reused batch buffer and
// yielding it every chunk records. Interning (fingerprints, strings and
// raw chain elements) spans the whole file.
func readCertChunks(path string, opts ReadOptions, fs *FileStats, chunk int, yield func([]CertRecord) error) error {
	dec := newCertDecoder()
	batch := make([]CertRecord, 0, chunk)
	err := readNDJSONFile(path, opts, fs, func(line []byte) error {
		rec, derr := dec.decode(line)
		if derr != nil {
			return derr
		}
		batch = append(batch, rec)
		if len(batch) == chunk {
			if yerr := yield(batch); yerr != nil {
				return &yieldError{yerr}
			}
			batch = batch[:0]
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(batch) > 0 {
		return yield(batch)
	}
	return nil
}

func readHeaderChunks(path string, opts ReadOptions, fs *FileStats, chunk int, yield func([]HeaderRecord) error) error {
	dec := newHeaderDecoder()
	batch := make([]HeaderRecord, 0, chunk)
	err := readNDJSONFile(path, opts, fs, func(line []byte) error {
		rec, derr := dec.decode(line)
		if derr != nil {
			return derr
		}
		batch = append(batch, rec)
		if len(batch) == chunk {
			if yerr := yield(batch); yerr != nil {
				return &yieldError{yerr}
			}
			batch = batch[:0]
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(batch) > 0 {
		return yield(batch)
	}
	return nil
}
