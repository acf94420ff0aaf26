package corpus

import (
	"bytes"
	"math"
	"unicode/utf8"

	"offnetscope/internal/certmodel"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
)

// The canonical-line fast path. Write's json.Encoder emits one fixed
// shape per record: keys in struct order (the omitempty ones only when
// set), no whitespace, and strings escaped only where they must be.
// The decoders below accept only that shape, with strings free of
// backslash escapes and control bytes and in valid UTF-8, and integers
// with no leading zero, "-0", fraction or exponent that fit their
// field. They decline any other line, which then goes through
// decodeCertRecord / decodeHeaderRecord (encoding/json) unchanged. On
// every line the fast path accepts, encoding/json yields the same
// record; FuzzDecodeLine holds the two to that.
//
// Nothing here retains the line's bytes: strings are interned (copied
// on a table miss), and the raw-element cache copies its keys.

// certDecoder decodes the lines of one certs file. Its tables live for
// exactly that file read, like strTable: interned maps fingerprints to
// the first certificate seen with them (shared with the encoding/json
// fallback), and raw maps the bytes of each chain element after the
// leaf to that interned certificate, so a repeated intermediate or root
// is neither parsed nor fingerprinted again.
type certDecoder struct {
	interned map[certmodel.Fingerprint]*certmodel.Certificate
	strs     strTable
	raw      map[string]*certmodel.Certificate

	elems []rawElem // scratch: the current line's chain
	names []string  // scratch: the current element's dNSNames
}

// rawElem is one decoded chain element awaiting commit; end > 0 marks
// a freshly parsed element whose bytes are line[start:end].
type rawElem struct {
	cert       *certmodel.Certificate
	start, end int
}

func newCertDecoder() *certDecoder {
	return &certDecoder{
		interned: make(map[certmodel.Fingerprint]*certmodel.Certificate),
		strs:     make(strTable),
		raw:      make(map[string]*certmodel.Certificate),
	}
}

func (d *certDecoder) decode(line []byte) (CertRecord, error) {
	if rec, ok := d.fast(line); ok {
		return rec, nil
	}
	return decodeCertRecord(line, d.interned, d.strs)
}

// fast decodes a canonical certs line, or reports false and leaves the
// intern tables as they were, exactly as a line encoding/json rejects
// would: interning commits only once the whole line has parsed and its
// IP is valid.
func (d *certDecoder) fast(line []byte) (CertRecord, bool) {
	c := canon{b: line}
	c.expect(`{"ip":"`)
	ip := c.raw()
	c.expect(`,"chain":`)
	elems := d.elems[:0]
	defer func() { clear(elems); d.elems = elems[:0] }()
	if !c.has("null") {
		c.expect("[")
		if !c.has("]") {
			for more := true; more && !c.bad; more = c.has(",") {
				start := c.i
				if len(elems) > 0 {
					if end := elemEnd(line, start); end > 0 {
						if known, ok := d.raw[string(line[start:end])]; ok {
							elems = append(elems, rawElem{cert: known})
							c.i = end
							continue
						}
					}
				}
				cert := c.cert(d)
				elems = append(elems, rawElem{cert: cert, start: start, end: c.i})
			}
			c.expect("]")
		}
	}
	c.expect("}")
	if c.bad || c.i != len(line) {
		return CertRecord{}, false
	}
	addr, err := netmodel.ParseIP(string(ip))
	if err != nil {
		return CertRecord{}, false
	}
	chain := make(certmodel.Chain, len(elems))
	for i, e := range elems {
		cert := e.cert
		if i > 0 && e.end > 0 { // intermediates and roots repeat heavily
			cert = internCert(d.interned, cert)
			d.raw[string(line[e.start:e.end])] = cert
		}
		chain[i] = cert
	}
	return CertRecord{IP: addr, Chain: chain}, true
}

// cert parses one canonical chain element into a fresh certificate.
func (c *canon) cert(d *certDecoder) *certmodel.Certificate {
	cert := &certmodel.Certificate{}
	c.expect(`{"serial":`)
	cert.SerialNumber = c.uint()
	cert.Subject.Organization = c.optStr(`,"subject_org":"`, d.strs)
	cert.Subject.CommonName = c.optStr(`,"subject_cn":"`, d.strs)
	cert.Issuer.Organization = c.optStr(`,"issuer_org":"`, d.strs)
	cert.Issuer.CommonName = c.optStr(`,"issuer_cn":"`, d.strs)
	if c.has(`,"dns_names":[`) {
		names := d.names[:0]
		if !c.has("]") {
			for more := true; more && !c.bad; more = c.has(",") {
				c.expect(`"`)
				names = append(names, d.strs.internBytes(c.raw()))
			}
			c.expect("]")
		}
		cert.DNSNames = append(make([]string, 0, len(names)), names...)
		clear(names)
		d.names = names[:0]
	}
	c.expect(`,"not_before":`)
	cert.NotBefore = unixTime(c.int())
	c.expect(`,"not_after":`)
	cert.NotAfter = unixTime(c.int())
	if c.has(`,"is_ca":`) {
		cert.IsCA = c.bool()
	}
	c.expect(`,"key":`)
	cert.Key = certmodel.KeyID(c.uint())
	c.expect(`,"signed_by":`)
	cert.SignedBy = certmodel.KeyID(c.uint())
	if c.has(`,"forged":`) {
		cert.Forged = c.bool()
	}
	c.expect("}")
	return cert
}

// elemEnd returns the index just past the object starting at b[start],
// found by skipping quoted strings (canonical strings hold no escapes),
// or 0 when b[start] opens no complete object. It only delimits the
// raw-cache key: a hit means the bytes equal an element that already
// parsed, so no validation is needed here.
func elemEnd(b []byte, start int) int {
	if start >= len(b) || b[start] != '{' {
		return 0
	}
	for i := start + 1; i < len(b); i++ {
		switch b[i] {
		case '"':
			j := bytes.IndexByte(b[i+1:], '"')
			if j < 0 {
				return 0
			}
			i += j + 1
		case '}':
			return i + 1
		}
	}
	return 0
}

// headerDecoder decodes the lines of one header file; strs lives for
// that file read.
type headerDecoder struct {
	strs    strTable
	headers []hg.Header // scratch: the current line's headers
}

func newHeaderDecoder() *headerDecoder { return &headerDecoder{strs: make(strTable)} }

func (d *headerDecoder) decode(line []byte) (HeaderRecord, error) {
	if rec, ok := d.fast(line); ok {
		return rec, nil
	}
	return decodeHeaderRecord(line, d.strs)
}

func (d *headerDecoder) fast(line []byte) (HeaderRecord, bool) {
	c := canon{b: line}
	c.expect(`{"ip":"`)
	ip := c.raw()
	c.expect(`,"headers":`)
	var headers []hg.Header
	if !c.has("null") {
		hs := d.headers[:0]
		c.expect("[")
		if !c.has("]") {
			for more := true; more && !c.bad; more = c.has(",") {
				c.expect(`{"Name":"`)
				name := d.strs.internBytes(c.raw())
				c.expect(`,"Value":"`)
				value := d.strs.internBytes(c.raw())
				c.expect("}")
				hs = append(hs, hg.Header{Name: name, Value: value})
			}
			c.expect("]")
		}
		headers = append(make([]hg.Header, 0, len(hs)), hs...)
		clear(hs)
		d.headers = hs[:0]
	}
	c.expect("}")
	if c.bad || c.i != len(line) {
		return HeaderRecord{}, false
	}
	addr, err := netmodel.ParseIP(string(ip))
	if err != nil {
		return HeaderRecord{}, false
	}
	return HeaderRecord{IP: addr, Headers: headers}, true
}

// canon is a cursor over one line in the canonical form. The first
// mismatch sets bad, after which every step is a no-op returning zero
// values, so callers check once at the end.
type canon struct {
	b   []byte
	i   int
	bad bool
}

// has consumes s if the input continues with it.
func (c *canon) has(s string) bool {
	if c.bad || len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

// expect consumes s or marks the line non-canonical.
func (c *canon) expect(s string) {
	if !c.has(s) {
		c.bad = true
	}
}

// raw returns the bytes of a string whose opening quote was already
// consumed, and consumes the closing quote. Escapes and raw control
// bytes are declined, as is invalid UTF-8 (encoding/json would
// substitute U+FFFD): the returned bytes are the decoded value.
func (c *canon) raw() []byte {
	if c.bad {
		return nil
	}
	ascii := true
	for j := c.i; j < len(c.b); j++ {
		ch := c.b[j]
		if ch == '"' {
			s := c.b[c.i:j]
			if ascii || utf8.Valid(s) {
				c.i = j + 1
				return s
			}
			break
		}
		if ch == '\\' || ch < 0x20 {
			break
		}
		if ch >= utf8.RuneSelf {
			ascii = false
		}
	}
	c.bad = true
	return nil
}

// optStr decodes an omitempty string field introduced by key (which
// ends with the opening quote), or "" when the field is absent.
func (c *canon) optStr(key string, strs strTable) string {
	if !c.has(key) {
		return ""
	}
	return strs.internBytes(c.raw())
}

// uint decodes an unsigned integer: digits only, no leading zero, no
// overflow.
func (c *canon) uint() uint64 {
	if c.bad {
		return 0
	}
	start := c.i
	var n uint64
	for ; c.i < len(c.b) && '0' <= c.b[c.i] && c.b[c.i] <= '9'; c.i++ {
		d := uint64(c.b[c.i] - '0')
		if n > (math.MaxUint64-d)/10 {
			c.bad = true
			return 0
		}
		n = n*10 + d
	}
	if digits := c.i - start; digits == 0 || digits > 1 && c.b[start] == '0' {
		c.bad = true
		return 0
	}
	return n
}

// int decodes a signed integer in range; "-0" is declined as
// non-canonical.
func (c *canon) int() int64 {
	neg := c.has("-")
	u := c.uint()
	switch {
	case c.bad:
		return 0
	case !neg && u <= math.MaxInt64:
		return int64(u)
	case neg && u != 0 && u <= 1<<63:
		return -int64(u-1) - 1
	}
	c.bad = true
	return 0
}

func (c *canon) bool() bool {
	switch {
	case c.has("true"):
		return true
	case c.has("false"):
		return false
	}
	c.bad = true
	return false
}
