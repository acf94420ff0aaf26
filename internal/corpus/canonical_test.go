package corpus

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"offnetscope/internal/certmodel"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/rng"
)

// toySnapshot builds an n-host vendor-month shaped like a scan corpus:
// a few CAs whose intermediates and roots repeat across records,
// hypergiant and customer leaves, self-signed and forged certificates,
// empty chains, and header records with nil, empty and multi-valued
// header lists. Non-ASCII text appears throughout; one record in ~50
// carries characters json.Encoder escapes ("AT&T", "<html>"), so both
// decode paths run.
func toySnapshot(tb testing.TB, n int) *Snapshot {
	tb.Helper()
	from := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	r := rng.New(3)
	var auths []*certmodel.Authority
	for i, name := range []string{"Google Trust Services", "DigiCert Inc", "Let's Encrypt", "Sectigo Limited"} {
		auths = append(auths, certmodel.NewAuthority(name, 1+i%3, from, to, rng.New(uint64(10+i))))
	}
	orgs := []string{"Google LLC", "Netflix, Inc.", "Facebook, Inc.", "Akamai Technologies, Inc.", "Ünïcode GmbH", "", "Tiny ISP"}
	names := []string{"*.google.com", "*.googlevideo.com", "*.nflxvideo.net", "a248.e.akamai.net", "*.fbcdn.net", "cache.isp.example", "xn--bcher-kva.example"}
	servers := []string{"gws", "nginx", "AkamaiGHost", "proxygen-bolt", "Apache/2.4.41 (Ubuntu)", "cloudflare"}
	snap := &Snapshot{Vendor: Rapid7, Snapshot: 20}
	for i := 0; i < n; i++ {
		ip := netmodel.IP(0x0a000000 + uint32(i)*7)
		spec := certmodel.LeafSpec{
			Organization: orgs[r.Intn(len(orgs))],
			CommonName:   names[r.Intn(len(names))],
			NotBefore:    from.AddDate(0, r.Intn(48), 0),
			NotAfter:     to.AddDate(0, -r.Intn(48), 0),
		}
		for k := r.Intn(4); k > 0; k-- {
			spec.DNSNames = append(spec.DNSNames, names[r.Intn(len(names))])
		}
		if i%50 == 0 { // rare, as in real scans: fields json.Encoder escapes
			spec.Organization, spec.CommonName = "AT&T Services", "<html>"
		}
		auth := auths[r.Intn(len(auths))]
		var chain certmodel.Chain
		switch k := r.Intn(20); {
		case k == 0:
			chain = nil // a host that completed no handshake
		case k == 1:
			chain = auth.IssueSelfSigned(spec)
		case k == 2:
			chain = auth.IssueLeaf(spec)
			chain[0].Forged = true
		case k == 3:
			chain = auth.IssueLeaf(spec)[:2] // root omitted
		default:
			chain = auth.IssueLeaf(spec)
		}
		snap.Certs = append(snap.Certs, CertRecord{IP: ip, Chain: chain})
		if i%3 == 0 {
			continue
		}
		var headers []hg.Header
		if i%5 != 0 {
			headers = []hg.Header{{Name: "Server", Value: servers[r.Intn(len(servers))]}}
			if i%7 == 0 {
				headers = append(headers, hg.Header{Name: "X-Cache", Value: "HIT"}, hg.Header{Name: "Via", Value: "1.1 varnish"})
			}
			if i%49 == 0 {
				headers = append(headers, hg.Header{Name: "Link", Value: "<https://example.com/>; rel=preconnect"})
			}
		} else if i%10 == 0 {
			headers = []hg.Header{}
		}
		rec := HeaderRecord{IP: ip, Headers: headers}
		if i%2 == 0 {
			snap.HTTPS = append(snap.HTTPS, rec)
		} else {
			snap.HTTP = append(snap.HTTP, rec)
		}
	}
	return snap
}

// writtenLines persists snap with Write and returns the lines of each
// file, in file order (certs, https, http).
func writtenLines(tb testing.TB, snap *Snapshot) (root string, files [3][][]byte) {
	tb.Helper()
	root = tb.TempDir()
	if err := Write(root, snap); err != nil {
		tb.Fatal(err)
	}
	dir := Dir(root, snap.Vendor, snap.Snapshot)
	for i, name := range []string{"certs.ndjson.gz", "https_headers.ndjson.gz", "http_headers.ndjson.gz"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			tb.Fatal(err)
		}
		gz, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			tb.Fatal(err)
		}
		raw, err := io.ReadAll(gz)
		if err != nil {
			tb.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
			if len(line) > 0 {
				files[i] = append(files[i], line)
			}
		}
	}
	return root, files
}

// withFingerprints fills every certificate's fingerprint cache, so
// reflect.DeepEqual compares content rather than which decoder happened
// to hash which certificate.
func withFingerprints(recs ...CertRecord) {
	for _, r := range recs {
		for _, c := range r.Chain {
			c.Fingerprint()
		}
	}
}

// Every line Write emits without a backslash escape must take the fast
// path: a writer change that silently pushed the corpus onto the
// encoding/json fallback would cost the study most of its read speed.
func TestWrittenLinesTakeFastPath(t *testing.T) {
	_, files := writtenLines(t, toySnapshot(t, 3000))
	cd, hd := newCertDecoder(), newHeaderDecoder()
	checked, escaped := 0, 0
	for i, lines := range files {
		for _, line := range lines {
			if bytes.IndexByte(line, '\\') >= 0 {
				escaped++
				continue
			}
			checked++
			var ok bool
			if i == 0 {
				_, ok = cd.fast(line)
			} else {
				_, ok = hd.fast(line)
			}
			if !ok {
				t.Fatalf("fast path declined a written line: %s", line)
			}
		}
	}
	if checked == 0 || escaped == 0 {
		t.Fatalf("toy snapshot must exercise both paths: %d fast lines, %d escaped", checked, escaped)
	}
}

// Reading a file through the fast path must yield the records — and the
// certificate sharing — the encoding/json path alone yields, including
// across escaped lines that fall back mid-file.
func TestFastPathMatchesFallback(t *testing.T) {
	_, files := writtenLines(t, toySnapshot(t, 2000))
	cd := newCertDecoder()
	interned := make(map[certmodel.Fingerprint]*certmodel.Certificate)
	strs := make(strTable)
	var fast, slow []CertRecord
	for _, line := range files[0] {
		got, err := cd.decode(line)
		if err != nil {
			t.Fatal(err)
		}
		want, err := decodeCertRecord(line, interned, strs)
		if err != nil {
			t.Fatal(err)
		}
		fast, slow = append(fast, got), append(slow, want)
	}
	withFingerprints(fast...)
	withFingerprints(slow...)
	if !reflect.DeepEqual(fast, slow) {
		t.Fatal("fast-path records differ from encoding/json records")
	}
	if a, b := aliasing(fast), aliasing(slow); !reflect.DeepEqual(a, b) {
		t.Fatal("fast path shares certificates differently from encoding/json")
	}
	if len(cd.raw) == 0 {
		t.Fatal("raw-element cache never filled")
	}

	hd := newHeaderDecoder()
	hstrs := make(strTable)
	for _, lines := range files[1:] {
		for _, line := range lines {
			got, err := hd.decode(line)
			if err != nil {
				t.Fatal(err)
			}
			want, err := decodeHeaderRecord(line, hstrs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("header record differs:\n fast %+v\n json %+v", got, want)
			}
		}
	}
}

// aliasing numbers each distinct certificate pointer in first-seen
// order, so two decodes can be compared for which chain links share one
// *Certificate.
func aliasing(recs []CertRecord) []int {
	ids := make(map[*certmodel.Certificate]int)
	var out []int
	for _, r := range recs {
		for _, c := range r.Chain {
			id, ok := ids[c]
			if !ok {
				id = len(ids)
				ids[c] = id
			}
			out = append(out, id)
		}
	}
	return out
}

// A line the fast path declines leaves the per-file tables as it found
// them, as encoding/json does for a line it rejects: the intermediate of
// a record with a bad IP must not become the interned one.
func TestDeclinedLineInternsNothing(t *testing.T) {
	const inter = `{"serial":2,"subject_org":"CA","not_before":0,"not_after":99,"is_ca":true,"key":5,"signed_by":6}`
	for _, line := range []string{
		`{"ip":"999.1.1.1","chain":[{"serial":1,"not_before":0,"not_after":9,"key":1,"signed_by":5},` + inter + `]}`,
		`{"ip":"1.1.1.1","chain":[{"serial":1,"not_before":0,"not_after":9,"key":1,"signed_by":5},` + inter + `,{"serial":01}]}`,
	} {
		cd := newCertDecoder()
		if _, ok := cd.fast([]byte(line)); ok {
			t.Fatalf("fast path accepted %s", line)
		}
		if len(cd.interned) != 0 || len(cd.raw) != 0 {
			t.Fatalf("declined line left %d interned and %d cached elements", len(cd.interned), len(cd.raw))
		}
	}
}

// A record longer than the line reader's 64 KiB buffer still decodes.
func TestLongLineRoundTrip(t *testing.T) {
	snap := sampleSnapshot(t)
	big := strings.Repeat("v", 200<<10)
	snap.HTTP = append(snap.HTTP, HeaderRecord{IP: netmodel.MustParseIP("1.0.0.3"), Headers: []hg.Header{{Name: "X-Big", Value: big}}})
	root := t.TempDir()
	if err := Write(root, snap); err != nil {
		t.Fatal(err)
	}
	back, err := Read(root, Rapid7, snap.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.HTTP, snap.HTTP) {
		t.Fatalf("long record did not round-trip: %d records", len(back.HTTP))
	}
}

// FuzzDecodeLine is the differential check on the fast path: on any
// input it must either decline or produce the record encoding/json
// produces — IP, every certificate field and fingerprint, and nil versus
// empty dNSName and header lists — without retaining the line's bytes.
func FuzzDecodeLine(f *testing.F) {
	_, files := writtenLines(f, toySnapshot(f, 60))
	for _, lines := range files {
		for _, line := range lines {
			f.Add(line)
		}
	}
	for _, s := range []string{
		`{"ip":"1.2.3.4","chain":null}`,
		`{"ip":"1.2.3.4","chain":[]}`,
		`{"ip":"1.2.3.4","headers":null}`,
		`{"ip":"1.2.3.4","headers":[]}`,
		`{"ip":"1.2.3.4","chain":[{"serial":1,"dns_names":[],"not_before":-0,"not_after":1,"key":1,"signed_by":2}]}`,
		`{"ip":"1.2.3.4","chain":[{"serial":18446744073709551615,"not_before":-9223372036854775808,"not_after":9223372036854775807,"is_ca":false,"key":1,"signed_by":2,"forged":true}]}`,
		`{"ip":"1.2.3.4","chain":[{"serial":18446744073709551616,"not_before":0,"not_after":0,"key":1,"signed_by":2}]}`,
		`{"ip":"1.2.3.4","chain":[{"serial":1e3,"not_before":0,"not_after":1.5,"key":01,"signed_by":2}]}`,
		`{"ip":"1.2.3.4","chain":[{"serial":1,"subject_org":"a\u0026b","not_before":0,"not_after":0,"key":1,"signed_by":2}]}`,
		`{"ip":"1.2.3.4","chain":[{"serial":1,"subject_org":"` + "\xff\xfe" + `","not_before":0,"not_after":0,"key":1,"signed_by":2}]}`,
		`{"ip":"1.2.3.4","chain":[{"serial":1,"subject_org":"` + "tab\there" + `","not_before":0,"not_after":0,"key":1,"signed_by":2}]}`,
		`{"IP":"1.2.3.4","Chain":[]}`,
		`{"ip":"1.2.3.4","ip":"5.6.7.8","chain":[]}`,
		`{"ip": "1.2.3.4", "chain": []}`,
		`{"ip":"1.2.3.4","chain":[],"extra":1}`,
		`{"ip":"01.2.3.4","chain":[]}`,
		`{"ip":"1.2.3.4","headers":[{"Name":"Server","Value":"gws"},{"name":"server","value":"x"}]}`,
		`{"ip":"1.2.3.4","headers":[{"Name":"Server","Value":"gws"}]}trailing`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		buf := append([]byte(nil), line...)
		scribble := func() {
			for i := range buf {
				buf[i] = '#'
			}
		}

		cd := newCertDecoder()
		if got, ok := cd.fast(buf); ok {
			scribble()
			want, err := decodeCertRecord(line, make(map[certmodel.Fingerprint]*certmodel.Certificate), make(strTable))
			if err != nil {
				t.Fatalf("fast path accepted a cert line encoding/json rejects (%v): %q", err, line)
			}
			withFingerprints(got, want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cert line %q:\n fast %s\n json %s", line, dumpCert(got), dumpCert(want))
			}
		}

		copy(buf, line)
		hd := newHeaderDecoder()
		if got, ok := hd.fast(buf); ok {
			scribble()
			want, err := decodeHeaderRecord(line, make(strTable))
			if err != nil {
				t.Fatalf("fast path accepted a header line encoding/json rejects (%v): %q", err, line)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("header line %q:\n fast %#v\n json %#v", line, got, want)
			}
		}
	})
}

func dumpCert(r CertRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ip=%v chain(nil=%v)", r.IP, r.Chain == nil)
	for _, c := range r.Chain {
		fmt.Fprintf(&b, " {%d %q %q %q %q %q(nil=%v) %d %d %v %d %d %v}", c.SerialNumber,
			c.Subject.Organization, c.Subject.CommonName, c.Issuer.Organization, c.Issuer.CommonName,
			c.DNSNames, c.DNSNames == nil, c.NotBefore.Unix(), c.NotAfter.Unix(), c.IsCA, c.Key, c.SignedBy, c.Forged)
	}
	return b.String()
}

// BenchmarkOpenStream measures the disk read path alone: one toy
// vendor-month, written once, drained through OpenStream. MB/s is over
// the uncompressed NDJSON, so it reads as decode throughput.
func BenchmarkOpenStream(b *testing.B) {
	snap := toySnapshot(b, 20000)
	root, files := writtenLines(b, snap)
	var size int64
	for _, lines := range files {
		for _, line := range lines {
			size += int64(len(line)) + 1
		}
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := OpenStream(root, snap.Vendor, snap.Snapshot, ReadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		_, _, _, errs := drainDiscard(st)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(snap.Certs)+len(snap.HTTPS)+len(snap.HTTP))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// drainDiscard consumes a stream, counting records without keeping them.
func drainDiscard(st *Stream) (certs, https, http int, errs [3]error) {
	errs[0] = st.Certs(func(batch []CertRecord) error { certs += len(batch); return nil })
	errs[1] = st.HTTPS(func(batch []HeaderRecord) error { https += len(batch); return nil })
	errs[2] = st.HTTP(func(batch []HeaderRecord) error { http += len(batch); return nil })
	return
}
