package hg

import (
	"bytes"
	"unicode"
	"unicode/utf8"
)

// Set is a set of hypergiants, one bit per ID.
type Set uint32

// Every ID must have a bit in Set: the conversion overflows, and the
// package stops compiling, once the registry outgrows it.
const _ = Set(1 << (numIDs - 1))

// Has reports whether id is in the set.
func (s Set) Has(id ID) bool {
	return id > None && id < numIDs && s&(1<<id) != 0
}

// keywords holds each hypergiant's Keyword as bytes, indexed by ID, so
// MatchOrg searches without converting.
var keywords = func() [numIDs][]byte {
	var kw [numIDs][]byte
	for id, h := range registry {
		kw[id] = []byte(h.Keyword)
	}
	return kw
}()

// orgBufLen covers every organization name seen in practice; longer
// names fall back to a heap buffer.
const orgBufLen = 128

// MatchOrg is the §4.2/§A.2 attribution rule: the set of hypergiants
// whose Keyword occurs in the lowercased organization name, whether a
// certificate's Subject Organization or a WHOIS organization. It is the
// one place the repository compares names with keywords.
//
// The result equals testing strings.Contains(strings.ToLower(org),
// h.Keyword) for every hypergiant, without allocating for names up to
// orgBufLen bytes. Keywords are ASCII, so only runes that lowercase to
// ASCII can take part in a match: the name is folded into a byte
// buffer that keeps those and writes any other rune as a single
// non-ASCII byte, which preserves every ASCII adjacency of the
// lowercased name.
func MatchOrg(org string) Set {
	var stack [orgBufLen]byte
	low := stack[:0]
	if len(org) > orgBufLen {
		low = make([]byte, 0, len(org))
	}
	for i := 0; i < len(org); {
		c := org[i]
		if c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			low = append(low, c)
			i++
			continue
		}
		r, width := utf8.DecodeRuneInString(org[i:])
		if r = unicode.ToLower(r); r < utf8.RuneSelf {
			low = append(low, byte(r))
		} else {
			low = append(low, utf8.RuneSelf)
		}
		i += width
	}
	var s Set
	for id := None + 1; id < numIDs; id++ {
		if bytes.Contains(low, keywords[id]) {
			s |= 1 << id
		}
	}
	return s
}
