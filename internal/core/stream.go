package core

import (
	"sync"
	"time"

	"offnetscope/internal/astopo"
	"offnetscope/internal/corpus"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
)

// This file is the front half of the §4 inference: corpus.Stream
// record batches are validated as they arrive, then the folded records
// go through the match/confirm half. Memory stays bounded by the chunk
// size plus the compact validated working set (one record struct per
// valid certificate observation — the two-pass §4.2/§4.3 scan needs
// it), not by the wire-format corpus: chains, header slices, and a
// month's giant record slices never materialize at once.
//
// Determinism contract: batches arrive in record order and each batch's
// shard partials fold in shard order, so the overall fold order is
// (chunk, shard) — lexicographically the record order. Every counter
// merges by commutative addition/union and every list concatenates in
// that order, which is why the output is byte-identical at any
// jobs × shards × chunk combination (pinned by the golden suite).

// RunStream executes the methodology over one streamed corpus
// snapshot. The error is the stream's: record-level damage accounting
// happened inside the stream per its ReadOptions, and a surfaced error
// means the month must be dropped.
func (p *Pipeline) RunStream(st *corpus.Stream) (*Result, error) {
	inf, err := p.InferSnapshotStream(st)
	if err != nil {
		return nil, err
	}
	return inf.Result, nil
}

// InferSnapshotStream runs the full §4 inference over a corpus.Stream
// and captures the envelope inputs. It drives all three record streams
// to completion, one goroutine each — guaranteeing the stream's read
// accounting always finalizes — validating certificate batches through
// the shard workers as they arrive, then runs the match/confirm half
// on the folded records.
func (p *Pipeline) InferSnapshotStream(st *corpus.Stream) (*SnapshotInference, error) {
	m := p.Metrics
	runStart := time.Now()
	res := &Result{
		Vendor:          st.Vendor,
		Snapshot:        st.Snapshot,
		InvalidByReason: make(map[string]int),
		PerHG:           make(map[hg.ID]*HGResult, hg.Count),
	}
	mapper := p.Mapper(st.Snapshot)
	at := st.ScanTime()

	var (
		records  []record
		asSet    = make(map[astopo.ASN]struct{})
		certIPs  = make(map[netmodel.IP]struct{})
		httpsIdx = make(map[netmodel.IP][]hg.Header)
		httpIdx  = make(map[netmodel.IP][]hg.Header)
		errs     [3]error
	)
	valStart := time.Now()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		// One scratch slice of shard partials, reused across batches —
		// the consumer is a single goroutine, so batches validate
		// strictly in arrival order and fold immediately.
		var parts []*validateShard
		errs[0] = st.Certs(func(batch []corpus.CertRecord) error {
			for i := range batch {
				certIPs[batch[i].IP] = struct{}{}
			}
			k := p.shardCount(len(batch))
			if cap(parts) < k {
				parts = make([]*validateShard, k)
			}
			parts = parts[:k]
			forEachShard(len(batch), k, func(shard, lo, hi int) {
				parts[shard] = p.validateRange(batch[lo:hi], at, mapper)
			})
			for _, part := range parts {
				records = append(records, part.records...)
				res.ValidCertIPs += part.valid
				for reason, c := range part.invalid {
					res.InvalidByReason[reason] += c
				}
				for as := range part.asSet {
					asSet[as] = struct{}{}
				}
				p.putShardScratch(part)
			}
			res.TotalCertIPs += len(batch)
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		errs[1] = st.HTTPS(func(batch []corpus.HeaderRecord) error {
			for _, r := range batch {
				httpsIdx[r.IP] = r.Headers
			}
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		errs[2] = st.HTTP(func(batch []corpus.HeaderRecord) error {
			for _, r := range batch {
				httpIdx[r.IP] = r.Headers
			}
			return nil
		})
	}()
	wg.Wait()
	// Error precedence follows the fixed file order.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res.TotalCertASes = len(asSet)
	m.Histogram("funnel.validate_ns").Since(valStart)

	p.matchAndCount(res, records, httpsIdx, httpIdx)

	// Envelope inputs (§6.2): the HTTP-only set falls out of the index
	// keys — indexHeaders dedups by IP exactly the same way.
	httpOnly := make(map[netmodel.IP]struct{})
	for ip := range httpIdx {
		if _, onTLS := certIPs[ip]; !onTLS {
			httpOnly[ip] = struct{}{}
		}
	}
	lookups := p.netflixLookups(res, mapper)
	m.Histogram("funnel.run_ns").Since(runStart)
	return &SnapshotInference{Result: res, HTTPOnlyIPs: httpOnly, NetflixLookups: lookups}, nil
}
