package analysis

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"offnetscope/internal/certmodel"
	"offnetscope/internal/corpus"
	"offnetscope/internal/hg"
	"offnetscope/internal/timeline"
)

func init() {
	register("a3-certs", "Appendix A.3: hypergiant certificate characteristics over time", func(e *Env) Renderer { return A3Certs(e) })
}

// A3Row is one hypergiant's certificate statistics at one snapshot.
type A3Row struct {
	UniqueCerts int
	// MedianLifetimeDays is the median NotAfter-NotBefore of the
	// hypergiant's observed end-entity certificates.
	MedianLifetimeDays int
}

// A3Result reproduces appendix A.3: certificate counts and validity
// periods per hypergiant across the study, which expose each company's
// certificate-management strategy (Google's 3-month rotation, Netflix's
// 2019 shift to 35-day certificates, Microsoft's 1-2 year terms).
type A3Result struct {
	// Rows[id][snapshot]
	Rows map[hg.ID][]A3Row
	HGs  []hg.ID
}

// A3Certs scans selected snapshots of the Rapid7 corpus and aggregates
// per-hypergiant certificate statistics.
func A3Certs(e *Env) *A3Result {
	out := &A3Result{
		Rows: make(map[hg.ID][]A3Row),
		HGs:  []hg.ID{hg.Google, hg.Netflix, hg.Facebook, hg.Microsoft},
	}
	for _, id := range out.HGs {
		out.Rows[id] = make([]A3Row, timeline.Count())
	}
	domainPools := make(map[hg.ID]map[string]struct{})
	for _, id := range out.HGs {
		pool := make(map[string]struct{})
		for _, d := range hg.Get(id).Domains {
			pool[d] = struct{}{}
		}
		domainPools[id] = pool
	}
	for _, s := range timeline.All() {
		// The pass only reads certificates, so consume the streamed scan:
		// record batches are synthesized and discarded in place instead of
		// materializing the month's corpus (headers and all).
		st := e.ScanStream(corpus.Rapid7, s)
		if st == nil {
			continue
		}
		type agg struct {
			fps       map[uint64]struct{}
			lifetimes []float64
		}
		aggs := make(map[hg.ID]*agg)
		for _, id := range out.HGs {
			aggs[id] = &agg{fps: make(map[uint64]struct{})}
		}
		scanTime := st.ScanTime()
		// Synthesized streams never fail and the consumer never aborts.
		_ = st.Certs(func(batch []corpus.CertRecord) error {
			for _, cr := range batch {
				leaf := cr.Chain.Leaf()
				hgs := hg.MatchOrg(leaf.Subject.Organization)
				for _, id := range out.HGs {
					if !hgs.Has(id) {
						continue
					}
					// Only genuine hypergiant serving certificates: valid
					// chains whose dNSNames all come from the hypergiant's
					// first-party domain pool. This sheds shared-certificate
					// partners and self-signed impostors.
					if certmodel.Verify(cr.Chain, scanTime, e.World.TrustStore()) != nil {
						continue
					}
					inPool := len(leaf.DNSNames) > 0
					for _, d := range leaf.DNSNames {
						if _, ok := domainPools[id][d]; !ok {
							inPool = false
							break
						}
					}
					if !inPool {
						continue
					}
					a := aggs[id]
					fp := uint64(leaf.Fingerprint())
					if _, seen := a.fps[fp]; !seen {
						a.fps[fp] = struct{}{}
						a.lifetimes = append(a.lifetimes, leaf.NotAfter.Sub(leaf.NotBefore).Hours()/24)
					}
					break
				}
			}
			return nil
		})
		for _, id := range out.HGs {
			a := aggs[id]
			row := A3Row{UniqueCerts: len(a.fps)}
			if len(a.lifetimes) > 0 {
				sort.Float64s(a.lifetimes)
				row.MedianLifetimeDays = int(a.lifetimes[len(a.lifetimes)/2])
			}
			out.Rows[id][s] = row
		}
	}
	return out
}

// Render implements Renderer.
func (a *A3Result) Render() string {
	var b strings.Builder
	b.WriteString("Appendix A.3 — unique certificates and median validity period (days)\n")
	for _, id := range a.HGs {
		fmt.Fprintf(&b, "--- %s ---\n%s\n", id, seriesHeader())
		certs := make([]int, timeline.Count())
		lifetimes := make([]int, timeline.Count())
		for i, r := range a.Rows[id] {
			certs[i] = r.UniqueCerts
			lifetimes[i] = r.MedianLifetimeDays
		}
		b.WriteString(seriesRow("certs", certs) + "\n")
		b.WriteString(seriesRow("median days", lifetimes) + "\n")
	}
	return b.String()
}

// MedianLifetimeAt is a convenience accessor for tests.
func (a *A3Result) MedianLifetimeAt(id hg.ID, s timeline.Snapshot) time.Duration {
	return time.Duration(a.Rows[id][s].MedianLifetimeDays) * 24 * time.Hour
}
