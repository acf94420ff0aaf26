package footstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"offnetscope/internal/astopo"
	"offnetscope/internal/durable"
	"offnetscope/internal/hg"
	"offnetscope/internal/obs"
	"offnetscope/internal/timeline"
)

// genStore builds a small store whose content varies with n, so
// successive generations have distinct bytes.
func genStore(t testing.TB, n int) *Store {
	t.Helper()
	b := NewBuilder()
	for i := 0; i <= n%3; i++ {
		s := timeline.Snapshot(i)
		if err := b.AddSnapshot(s, map[hg.ID][]astopo.ASN{
			hg.Google: {astopo.ASN(100 + n), astopo.ASN(200 + i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustOpen(t testing.TB, dir string) (*GenLog, *GenRecovery) {
	t.Helper()
	l, rec, err := OpenGenLog(dir)
	if err != nil {
		t.Fatalf("OpenGenLog(%s): %v", dir, err)
	}
	return l, rec
}

func TestGenLogFresh(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, dir)
	if rec.Committed != 0 || len(rec.TornQuarantined) != 0 || len(rec.OrphanedRemoved) != 0 {
		t.Fatalf("fresh log recovery = %+v", rec)
	}
	if l.Base() != 1 || l.Last() != 0 || l.Len() != 0 {
		t.Fatalf("fresh log window = base %d last %d len %d", l.Base(), l.Last(), l.Len())
	}
	// The empty manifest is written eagerly so readers need no special
	// "not yet" case beyond a missing file.
	base, next, err := PeekGenLog(dir)
	if err != nil || base != 1 || next != 1 {
		t.Fatalf("PeekGenLog = %d, %d, %v", base, next, err)
	}
}

func TestGenLogAppendLoadReopen(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	reg := obs.NewRegistry("genlog-test")
	l.SetMetrics(reg)

	var want [][]byte
	for n := 0; n < 4; n++ {
		st := genStore(t, n)
		gen, err := l.Append(st)
		if err != nil {
			t.Fatal(err)
		}
		if gen != uint64(n+1) {
			t.Fatalf("append %d returned generation %d", n, gen)
		}
		want = append(want, st.Encode())
	}
	if l.Base() != 1 || l.Last() != 4 || l.Len() != 4 {
		t.Fatalf("window = base %d last %d len %d", l.Base(), l.Last(), l.Len())
	}
	if got := reg.Counter("genlog.appends").Value(); got != 4 {
		t.Fatalf("genlog.appends = %d", got)
	}

	check := func(l *GenLog) {
		t.Helper()
		for n, enc := range want {
			gen := uint64(n + 1)
			payload, err := l.LoadEncoded(gen)
			if err != nil {
				t.Fatalf("LoadEncoded(%d): %v", gen, err)
			}
			if !bytes.Equal(payload, enc) {
				t.Fatalf("generation %d payload differs", gen)
			}
			st, err := l.Load(gen)
			if err != nil {
				t.Fatalf("Load(%d): %v", gen, err)
			}
			if !bytes.Equal(st.Encode(), enc) {
				t.Fatalf("generation %d store re-encodes differently", gen)
			}
			ro, err := LoadGeneration(dir, gen)
			if err != nil {
				t.Fatalf("LoadGeneration(%d): %v", gen, err)
			}
			if !bytes.Equal(ro.Encode(), enc) {
				t.Fatalf("read-only generation %d differs", gen)
			}
		}
	}
	check(l)

	// Reopen: everything verified, nothing repaired.
	l2, rec := mustOpen(t, dir)
	if rec.Committed != 4 || len(rec.TornQuarantined) != 0 || len(rec.OrphanedRemoved) != 0 || rec.TempsRemoved != 0 {
		t.Fatalf("clean reopen recovery = %+v", rec)
	}
	check(l2)

	base, next, err := PeekGenLog(dir)
	if err != nil || base != 1 || next != 5 {
		t.Fatalf("PeekGenLog = %d, %d, %v", base, next, err)
	}

	if _, err := l.LoadEncoded(5); err == nil {
		t.Fatal("LoadEncoded past the committed window succeeded")
	}
	if _, err := l.LoadEncoded(0); err == nil {
		t.Fatal("LoadEncoded(0) succeeded")
	}
}

func TestGenLogTornTailQuarantined(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	for n := 0; n < 2; n++ {
		if _, err := l.Append(genStore(t, n)); err != nil {
			t.Fatal(err)
		}
	}

	// Simulate a crash between segment write and manifest commit: a
	// fully written segment at the next slot, and a half-written one
	// beyond it.
	whole := encodeSegment(3, genStore(t, 2).Encode())
	if err := os.WriteFile(filepath.Join(dir, segName(3)), whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(4)), whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, dir)
	if rec.Committed != 2 {
		t.Fatalf("committed = %d, want 2", rec.Committed)
	}
	if len(rec.TornQuarantined) != 2 {
		t.Fatalf("torn quarantined = %v, want 2 entries", rec.TornQuarantined)
	}
	if l2.Last() != 2 {
		t.Fatalf("Last = %d after quarantine, want 2", l2.Last())
	}
	for _, gen := range []uint64{3, 4} {
		if _, err := os.Lstat(filepath.Join(dir, segName(gen))); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("torn segment %d still under its live name", gen)
		}
		if _, err := os.Lstat(filepath.Join(dir, segName(gen)+tornSuffix)); err != nil {
			t.Fatalf("torn segment %d not preserved: %v", gen, err)
		}
	}

	// The slot is reusable: the next append commits generation 3 and
	// does not collide with the quarantine.
	st := genStore(t, 5)
	gen, err := l2.Append(st)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 3 {
		t.Fatalf("post-recovery append got generation %d, want 3", gen)
	}
	got, err := LoadGeneration(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), st.Encode()) {
		t.Fatal("recommitted generation 3 differs")
	}
}

func TestGenLogTornQuarantineNameCollision(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	if _, err := l.Append(genStore(t, 0)); err != nil {
		t.Fatal(err)
	}
	// A previous crash already quarantined a generation 2; tear another.
	if err := os.WriteFile(filepath.Join(dir, segName(2)+tornSuffix), []byte("old torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(2)), []byte("new torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, dir)
	if len(rec.TornQuarantined) != 1 {
		t.Fatalf("torn quarantined = %v", rec.TornQuarantined)
	}
	raw, err := os.ReadFile(filepath.Join(dir, segName(2)+tornSuffix+".1"))
	if err != nil {
		t.Fatalf("collision quarantine missing: %v", err)
	}
	if string(raw) != "new torn" {
		t.Fatalf("collision quarantine holds %q", raw)
	}
	old, err := os.ReadFile(filepath.Join(dir, segName(2)+tornSuffix))
	if err != nil || string(old) != "old torn" {
		t.Fatalf("prior quarantine clobbered: %q, %v", old, err)
	}
}

func TestGenLogTempsSweptAndSubdirsIgnored(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	if _, err := l.Append(genStore(t, 0)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, durable.TempPrefix+"MANIFEST.glm-123"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Wave checkpoints live in a subdirectory of the log dir; the sweep
	// must not trip over it.
	if err := os.MkdirAll(filepath.Join(dir, "waves-ck"), 0o755); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, dir)
	if rec.TempsRemoved != 1 {
		t.Fatalf("temps removed = %d, want 1", rec.TempsRemoved)
	}
	if l2.Last() != 1 {
		t.Fatalf("Last = %d", l2.Last())
	}
	if _, err := os.Stat(filepath.Join(dir, "waves-ck")); err != nil {
		t.Fatalf("subdirectory disturbed: %v", err)
	}
}

func TestGenLogCompact(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	var want [][]byte
	for n := 0; n < 5; n++ {
		st := genStore(t, n)
		if _, err := l.Append(st); err != nil {
			t.Fatal(err)
		}
		want = append(want, st.Encode())
	}

	removed, err := l.Compact(2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("Compact removed %d, want 3", removed)
	}
	if l.Base() != 4 || l.Last() != 5 || l.Len() != 2 {
		t.Fatalf("window after compact = base %d last %d len %d", l.Base(), l.Last(), l.Len())
	}
	for gen := uint64(1); gen <= 3; gen++ {
		if _, err := os.Lstat(filepath.Join(dir, segName(gen))); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("compacted segment %d still on disk", gen)
		}
		if _, err := l.LoadEncoded(gen); err == nil {
			t.Fatalf("LoadEncoded(%d) succeeded after compaction", gen)
		}
	}
	for gen := uint64(4); gen <= 5; gen++ {
		payload, err := l.LoadEncoded(gen)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, want[gen-1]) {
			t.Fatalf("generation %d payload changed by compaction", gen)
		}
	}

	// Idempotent when already within budget.
	if removed, err := l.Compact(2); err != nil || removed != 0 {
		t.Fatalf("second Compact = %d, %v", removed, err)
	}
	// keep < 1 disables compaction.
	if removed, err := l.Compact(0); err != nil || removed != 0 {
		t.Fatalf("Compact(0) = %d, %v", removed, err)
	}

	// Reopen and append: numbering continues past the raised base.
	l2, rec := mustOpen(t, dir)
	if rec.Committed != 2 || len(rec.OrphanedRemoved) != 0 {
		t.Fatalf("post-compact reopen recovery = %+v", rec)
	}
	gen, err := l2.Append(genStore(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 6 {
		t.Fatalf("append after compact+reopen got generation %d, want 6", gen)
	}
}

func TestGenLogCompactionOrphansRemovedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	for n := 0; n < 4; n++ {
		if _, err := l.Append(genStore(t, n)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a compaction killed between its manifest commit and the
	// unlinks: write the raised-base manifest by hand, leaving segments
	// 1 and 2 stranded below base.
	l.mu.Lock()
	l.base = 3
	l.segs = l.segs[2:]
	if err := l.writeManifestLocked(); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	l.mu.Unlock()

	l2, rec := mustOpen(t, dir)
	if len(rec.OrphanedRemoved) != 2 {
		t.Fatalf("orphans removed = %v, want 2 entries", rec.OrphanedRemoved)
	}
	if l2.Base() != 3 || l2.Last() != 4 {
		t.Fatalf("window = base %d last %d", l2.Base(), l2.Last())
	}
	for gen := uint64(1); gen <= 2; gen++ {
		if _, err := os.Lstat(filepath.Join(dir, segName(gen))); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("orphan %d survived open", gen)
		}
	}
}

func TestGenLogCorruptCommittedSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	if _, err := l.Append(genStore(t, 0)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = OpenGenLog(dir)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenGenLog over corrupt committed segment: %v", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Path != path {
		t.Fatalf("CorruptError path = %+v", err)
	}
	if _, err := LoadGeneration(dir, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("LoadGeneration over corrupt segment: %v", err)
	}
}

func TestGenLogCorruptManifestRejected(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	if _, err := l.Append(genStore(t, 0)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenGenLog(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenGenLog over corrupt manifest: %v", err)
	}
	if _, _, err := PeekGenLog(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("PeekGenLog over corrupt manifest: %v", err)
	}
}

func TestGenLogSegmentWrongSlotRejected(t *testing.T) {
	payload := []byte("payload")
	seg := encodeSegment(5, payload)
	if got, err := decodeSegment(seg, 5); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("decodeSegment(5) = %q, %v", got, err)
	}
	if _, err := decodeSegment(seg, 6); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("segment accepted in the wrong slot: %v", err)
	}
}

func TestGenLogManifestRoundtrip(t *testing.T) {
	segs := []segMeta{{size: 15, crc: 0xdeadbeef}, {size: 4096, crc: 0}, {size: 1 << 20, crc: 42}}
	raw := encodeManifest(7, segs)
	base, got, err := decodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if base != 7 || len(got) != len(segs) {
		t.Fatalf("decoded base %d, %d rows", base, len(got))
	}
	for i := range segs {
		if got[i] != segs[i] {
			t.Fatalf("row %d = %+v, want %+v", i, got[i], segs[i])
		}
	}
	if !bytes.Equal(encodeManifest(base, got), raw) {
		t.Fatal("manifest re-encoding not canonical")
	}
	// Structural rejections.
	if _, _, err := decodeManifest(encodeManifest(0, nil)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("base 0 accepted: %v", err)
	}
	if _, _, err := decodeManifest(encodeManifest(1, []segMeta{{size: 3, crc: 1}})); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("implausibly small segment row accepted: %v", err)
	}
}

func TestGenLogAppendEncodedOpaque(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	payload := bytes.Repeat([]byte{0xab, 0xcd}, 1000)
	gen, err := l.AppendEncoded(payload)
	if err != nil || gen != 1 {
		t.Fatalf("AppendEncoded = %d, %v", gen, err)
	}
	got, err := l.LoadEncoded(1)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("LoadEncoded after opaque append: %v", err)
	}
	// The payload is not a store image; the serving-side loader rejects
	// it while the log-level read does not.
	if _, err := LoadGeneration(dir, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("LoadGeneration over an opaque payload: %v", err)
	}
}

func TestNewBuilderFromRoundtrip(t *testing.T) {
	st := buildTestStore(t)
	st2, err := NewBuilderFrom(st).Build()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st2.Encode(), st.Encode()) {
		t.Fatal("NewBuilderFrom roundtrip is not byte-identical")
	}
	// And the rebuilt builder accepts further snapshots after Latest().
	b := NewBuilderFrom(st)
	if err := b.AddSnapshot(st.Latest()+1, map[hg.ID][]astopo.ASN{hg.Google: {100}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
}
