package worldsim

import (
	"math"
	"reflect"
	"testing"

	"offnetscope/internal/astopo"
	"offnetscope/internal/hg"
	"offnetscope/internal/timeline"
)

// The scenario-override hooks must reshape ground truth exactly as
// configured — and leave the default world bit-identical when unused
// (the golden suite pins that side).

func TestWithDefaultsIdempotent(t *testing.T) {
	cases := []Config{
		{},
		{Seed: 7, Scale: 0.5},
		{Scale: -3, BackgroundHostsPerAS: -1},
		{IPv6OnlyASFrac: 0.2, SharedCertFrac: 0.1, CustomerCertBoost: 4,
			Trajectories: map[hg.ID]TrajectoryOverride{hg.Google: {OffNetScale: 2}}},
	}
	for _, c := range cases {
		once := c.WithDefaults()
		twice := once.WithDefaults()
		if !reflect.DeepEqual(once, twice) {
			t.Errorf("WithDefaults not idempotent: %+v vs %+v", once, twice)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	valid := []Config{
		{},
		{Scale: 1, IPv6OnlyASFrac: 0.99, SharedCertFrac: 1, CustomerCertBoost: 100},
		{Scale: minScale},
		{Hide: HideAndSeek{NullDefaultCertFrac: 0.95, StripOrganization: true}},
		{Trajectories: map[hg.ID]TrajectoryOverride{
			hg.Netflix: {OffNetScale: 0.3},
			hg.Google:  {FlashPeakASes: 2000, FlashAt: 20, FlashWidth: 5},
		}},
	}
	for i, c := range valid {
		if err := c.Validate(); err != nil {
			t.Errorf("valid[%d]: unexpected error %v", i, err)
		}
	}
	invalid := []Config{
		{Scale: math.NaN()},
		{Scale: -0.1},
		{Scale: 3},
		{Scale: 0.001},  // 71 ASes: below the AS topology's tier floors
		{Scale: 0.0015}, // 106 ASes
		{BackgroundHostsPerAS: math.Inf(1)},
		{IPv6OnlyASFrac: 1.5},
		{Hide: HideAndSeek{NullDefaultCertFrac: -0.2}},
		{SharedCertFrac: math.NaN()},
		{CustomerCertBoost: -1},
		{Trajectories: map[hg.ID]TrajectoryOverride{hg.None: {}}},
		{Trajectories: map[hg.ID]TrajectoryOverride{hg.Google: {OffNetScale: math.NaN()}}},
		{Trajectories: map[hg.ID]TrajectoryOverride{hg.Google: {FlashPeakASes: 100, FlashAt: 99}}},
		{Trajectories: map[hg.ID]TrajectoryOverride{hg.Google: {FlashWidth: -1}}},
	}
	for i, c := range invalid {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid[%d] (%+v): Validate accepted it", i, c)
		}
	}
}

// New refuses a scale below the AS topology's tier floors instead of
// panicking inside the generator, and builds the smallest valid world.
func TestNewScaleFloor(t *testing.T) {
	if _, err := New(Config{Seed: 1, Scale: 0.001}); err == nil {
		t.Fatal("New accepted a 71-AS world")
	}
	w, err := New(Config{Seed: 1, Scale: minScale})
	if err != nil {
		t.Fatalf("minimum scale %v: %v", minScale, err)
	}
	if n := w.Graph().NumASes(); n < astopo.MinFinalASes {
		t.Errorf("minimum-scale world has %d ASes, want at least %d", n, astopo.MinFinalASes)
	}
}

func TestTrajectoryOverrideScale(t *testing.T) {
	shrunk, err := New(Config{Seed: 42, Scale: 0.03,
		Trajectories: map[hg.ID]TrajectoryOverride{hg.Netflix: {OffNetScale: 0.3}}})
	if err != nil {
		t.Fatal(err)
	}
	base := len(testWorld.TrueOffNetASes(hg.Netflix, last()))
	got := len(shrunk.TrueOffNetASes(hg.Netflix, last()))
	want := shrunk.scaleCount(interpolate(strategies[hg.Netflix].offNetASes, last()) * 0.3)
	if got != want {
		t.Errorf("scaled Netflix footprint = %d, want %d", got, want)
	}
	if got >= base {
		t.Errorf("OffNetScale 0.3 did not shrink the footprint (%d vs baseline %d)", got, base)
	}
	// Other hypergiants keep their paper-anchored targets.
	if g, b := len(shrunk.TrueOffNetASes(hg.Google, last())), len(testWorld.TrueOffNetASes(hg.Google, last())); g != b {
		t.Errorf("Google footprint changed under a Netflix override: %d vs %d", g, b)
	}
}

func TestTrajectoryOverrideFlash(t *testing.T) {
	peak := timeline.Snapshot(20)
	w, err := New(Config{Seed: 42, Scale: 0.03,
		Trajectories: map[hg.ID]TrajectoryOverride{hg.Twitter: {FlashPeakASes: 500, FlashAt: peak, FlashWidth: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	atPeak := len(w.TrueOffNetASes(hg.Twitter, peak))
	before := len(w.TrueOffNetASes(hg.Twitter, peak-4))
	after := len(w.TrueOffNetASes(hg.Twitter, peak+4))
	if atPeak <= before || atPeak <= after {
		t.Errorf("flash bump invisible: before=%d peak=%d after=%d", before, atPeak, after)
	}
	if want := w.scaleCount(500); atPeak != want {
		t.Errorf("flash peak footprint = %d, want %d", atPeak, want)
	}
	// The bump evaluates to zero outside its width.
	o := TrajectoryOverride{FlashPeakASes: 500, FlashAt: peak, FlashWidth: 4}
	if v := o.flashAt(peak - 4); v != 0 {
		t.Errorf("flashAt(peak-width) = %v, want 0", v)
	}
	if v := o.flashAt(peak); v != 500 {
		t.Errorf("flashAt(peak) = %v, want 500", v)
	}
}

func TestCustomerCertBoost(t *testing.T) {
	boosted, err := New(Config{Seed: 42, Scale: 0.03, CustomerCertBoost: 3})
	if err != nil {
		t.Fatal(err)
	}
	base := len(testWorld.TrueServicePresentASes(hg.Cloudflare, last()))
	got := len(boosted.TrueServicePresentASes(hg.Cloudflare, last()))
	if got < 2*base {
		t.Errorf("CustomerCertBoost 3: Cloudflare customers %d, want ≥ 2× baseline %d", got, base)
	}
	// Non-issuers are untouched.
	if g, b := len(boosted.TrueServicePresentASes(hg.Apple, last())), len(testWorld.TrueServicePresentASes(hg.Apple, last())); g != b {
		t.Errorf("Apple service footprint changed under the boost: %d vs %d", g, b)
	}
}

func TestSharedCertFracBoost(t *testing.T) {
	boosted, err := New(Config{Seed: 42, Scale: 0.03, SharedCertFrac: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	count := func(w *World) (shared, total int) {
		w.Hosts(last(), func(h *Host) bool {
			hid, ok := w.resolve(h.IP, last())
			if ok && hid.kind == kindBackground {
				total++
				if hid.class == classSharedCert {
					shared++
				}
			}
			return true
		})
		return
	}
	bShared, bTotal := count(testWorld)
	oShared, oTotal := count(boosted)
	if bTotal == 0 || oTotal == 0 {
		t.Fatal("no background hosts enumerated")
	}
	bFrac := float64(bShared) / float64(bTotal)
	oFrac := float64(oShared) / float64(oTotal)
	if oFrac < 0.07 || oFrac > 0.14 {
		t.Errorf("boosted shared-cert fraction = %v, want ~0.10", oFrac)
	}
	if oFrac <= bFrac {
		t.Errorf("boost did not raise the shared-cert fraction (%v vs %v)", oFrac, bFrac)
	}
}
