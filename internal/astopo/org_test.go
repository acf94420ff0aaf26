package astopo

import (
	"testing"

	"offnetscope/internal/timeline"
)

func TestOrgDBNameHistory(t *testing.T) {
	db := NewOrgDB()
	as := ASN(15169)
	db.Set(as, 0, "Google Inc.")
	db.Set(as, 14, "Google LLC") // 2017-04 rename

	if got := db.Name(as, 0); got != "Google Inc." {
		t.Errorf("name at 0 = %q", got)
	}
	if got := db.Name(as, 13); got != "Google Inc." {
		t.Errorf("name at 13 = %q", got)
	}
	if got := db.Name(as, 14); got != "Google LLC" {
		t.Errorf("name at 14 = %q", got)
	}
	if got := db.Name(as, 30); got != "Google LLC" {
		t.Errorf("name at 30 = %q", got)
	}
	if got := db.Name(ASN(1), 10); got != "" {
		t.Errorf("unknown AS name = %q", got)
	}
}

func TestOrgDBSetOutOfOrderAndOverride(t *testing.T) {
	db := NewOrgDB()
	as := ASN(7)
	db.Set(as, 10, "B Corp")
	db.Set(as, 0, "A Corp")
	if got := db.Name(as, 5); got != "A Corp" {
		t.Errorf("name at 5 = %q", got)
	}
	db.Set(as, 10, "B2 Corp") // same-snapshot override
	if got := db.Name(as, 12); got != "B2 Corp" {
		t.Errorf("name at 12 = %q", got)
	}
}

func TestOrgDBEach(t *testing.T) {
	db := NewOrgDB()
	db.Set(ASN(1), 0, "Google Inc.")
	db.Set(ASN(2), 0, "Google Fiber")
	db.Set(ASN(3), 0, "Netflix, Inc.")
	db.Set(ASN(4), 5, "Google Cloud") // appears later

	names := func(s timeline.Snapshot) map[ASN]string {
		out := make(map[ASN]string)
		db.Each(s, func(as ASN, org string) {
			if _, dup := out[as]; dup {
				t.Fatalf("AS%d visited twice at %v", as, s)
			}
			out[as] = org
		})
		return out
	}
	got := names(0)
	if len(got) != 3 || got[1] != "Google Inc." || got[2] != "Google Fiber" || got[3] != "Netflix, Inc." {
		t.Fatalf("Each at 0 = %v", got)
	}
	got = names(10)
	if len(got) != 4 || got[4] != "Google Cloud" {
		t.Fatalf("Each at 10 = %v", got)
	}
	if db.NumASes() != 4 {
		t.Errorf("NumASes = %d", db.NumASes())
	}
}
