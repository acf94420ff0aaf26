package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"offnetscope/internal/corpus"
	"offnetscope/internal/timeline"
)

func TestWorldgenWritesCorpusAndManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a corpus on disk")
	}
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{
		"-out", dir, "-seed", "5", "-scale", "0.02",
		"-vendors", "rapid7", "-from", "2020-10", "-to", "2021-04",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote") {
		t.Errorf("missing summary line:\n%s", out.String())
	}

	// Manifest round-trips.
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf Manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	if mf.Seed != 5 || mf.Scale != 0.02 {
		t.Errorf("manifest = %+v", mf)
	}

	// Each requested snapshot is readable.
	for _, label := range []string{"2020-10", "2021-01", "2021-04"} {
		s, _ := timeline.FromLabel(label)
		snap, err := corpus.Read(dir, corpus.Rapid7, s)
		if err != nil {
			t.Fatalf("reading %s: %v", label, err)
		}
		if len(snap.Certs) == 0 || len(snap.HTTP) == 0 || len(snap.HTTPS) == 0 {
			t.Errorf("%s: empty corpus parts (%d/%d/%d)", label, len(snap.Certs), len(snap.HTTP), len(snap.HTTPS))
		}
	}
	// No snapshots outside the window.
	if _, err := corpus.Read(dir, corpus.Rapid7, 0); err == nil {
		t.Error("2013-10 should not exist in this corpus")
	}
}

func TestWorldgenRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{}, &out); err == nil {
		t.Error("missing -out should fail")
	}
	if err := run([]string{"-out", t.TempDir(), "-from", "x"}, &out); err == nil {
		t.Error("invalid -from should fail")
	}
	if err := run([]string{"-out", t.TempDir(), "-from", "2021-04", "-to", "2013-10"}, &out); err == nil {
		t.Error("inverted range should fail")
	}
	if err := run([]string{"-out", t.TempDir(), "-vendors", "nsa"}, &out); err == nil {
		t.Error("unknown vendor should fail")
	}
	// A world too small for the AS topology's tiers is an error naming
	// the minimum scale, not a panic.
	err := run([]string{"-out", t.TempDir(), "-scale", "0.001"}, &out)
	if err == nil || !strings.Contains(err.Error(), "minimum scale 0.001536") {
		t.Errorf("-scale 0.001: err = %v, want one naming the minimum scale", err)
	}
}

func TestWorldgenDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("generates datasets on disk")
	}
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{
		"-out", dir, "-seed", "5", "-scale", "0.02",
		"-vendors", "rapid7", "-from", "2021-04", "-to", "2021-04", "-datasets",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote datasets") {
		t.Errorf("missing dataset summary:\n%s", out.String())
	}
	for _, f := range []string{
		"datasets/as-rel.txt",
		"datasets/as-org.txt",
		"datasets/rib/routeviews_2021-04.txt",
		"datasets/rib/ripe-ris_2021-04.txt",
	} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
}
