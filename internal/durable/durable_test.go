package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tempLitter lists every in-flight temp file left in dir.
func tempLitter(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), TempPrefix) {
			out = append(out, e.Name())
		}
	}
	return out
}

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

func TestWriteFileCreatesAndReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	for _, want := range []string{"first", "second, longer than the first"} {
		if err := WriteFile(path, writeString(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("read %q, want %q", got, want)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != 0o644 {
			t.Fatalf("mode %v, want 0644", fi.Mode().Perm())
		}
	}
	if litter := tempLitter(t, dir); len(litter) != 0 {
		t.Fatalf("temp files left behind: %v", litter)
	}
}

// A failing write callback — before or after it has written bytes —
// must leave the previous file byte-identical and no temp litter.
func TestWriteFileFailureLeavesTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := WriteFile(path, writeString("good bytes")); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	for _, write := range []func(io.Writer) error{
		func(io.Writer) error { return boom },
		func(w io.Writer) error {
			if _, err := io.WriteString(w, "half a new file"); err != nil {
				return err
			}
			return boom
		},
	} {
		if err := WriteFile(path, write); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the callback's error", err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("failed write changed the target: %q", after)
		}
		if litter := tempLitter(t, dir); len(litter) != 0 {
			t.Fatalf("temp files left behind: %v", litter)
		}
	}
}

// Every successful WriteFile syncs the target's directory exactly once,
// after the rename; a failed write, whose rename never happens, does
// not.
func TestWriteFileSyncsDir(t *testing.T) {
	orig := syncDir
	defer func() { syncDir = orig }()
	var synced []string
	syncDir = func(dir string) error {
		synced = append(synced, dir)
		return orig(dir)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	for i := 0; i < 3; i++ {
		synced = nil
		if err := WriteFile(path, writeString("x")); err != nil {
			t.Fatal(err)
		}
		if len(synced) != 1 || synced[0] != dir {
			t.Fatalf("write %d synced %v, want exactly [%s]", i, synced, dir)
		}
	}

	synced = nil
	boom := errors.New("boom")
	if err := WriteFile(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	if len(synced) != 0 {
		t.Fatalf("failed write synced the directory (%v) despite no rename", synced)
	}
}

func TestWriteFileMissingDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no-such-dir", "out.bin")
	if err := WriteFile(path, writeString("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

func TestSyncDir(t *testing.T) {
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("syncing a missing directory succeeded")
	}
}
