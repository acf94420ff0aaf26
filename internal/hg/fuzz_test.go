package hg

import (
	"strings"
	"testing"
)

func FuzzMatchDomain(f *testing.F) {
	f.Add("*.google.com", "www.google.com")
	f.Add("", "")
	f.Add("*.", "x.")
	f.Add("*.a", "b.a")
	f.Fuzz(func(t *testing.T, pattern, name string) {
		got := MatchDomain(pattern, name)
		// Matching is case-insensitive by definition.
		if got != MatchDomain(pattern, name) {
			t.Fatal("non-deterministic")
		}
		// A concrete (non-wildcard) pattern matches only itself.
		if len(pattern) > 0 && pattern[0] != '*' && got {
			if !equalFold(pattern, name) {
				t.Fatalf("non-wildcard %q matched different name %q", pattern, name)
			}
		}
	})
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// FuzzMatchOrg checks the classifier against the reference form of the
// §4.2 rule, one keyword at a time.
func FuzzMatchOrg(f *testing.F) {
	f.Add("Google LLC")
	f.Add("Akamai for Netflix")
	f.Add("A\u212aAMAI")
	f.Add("\xffgoogle\xc3")
	f.Add("")
	f.Fuzz(func(t *testing.T, org string) {
		got := MatchOrg(org)
		for _, h := range All() {
			want := strings.Contains(strings.ToLower(org), h.Keyword)
			if got.Has(h.ID) != want {
				t.Fatalf("MatchOrg(%q).Has(%v) = %v, want %v", org, h.ID, !want, want)
			}
		}
		if got&1 != 0 || got>>numIDs != 0 {
			t.Fatalf("MatchOrg(%q) = %b sets bits outside the registry", org, got)
		}
	})
}
