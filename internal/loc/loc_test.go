package loc

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"openflame/internal/geo"
)

// storeBeacons places beacons in the corners and center of a 40x25m store.
func storeBeacons() []Beacon {
	return []Beacon{
		{ID: "b0", Pos: geo.Point{X: 0, Y: 0}},
		{ID: "b1", Pos: geo.Point{X: 40, Y: 0}},
		{ID: "b2", Pos: geo.Point{X: 40, Y: 25}},
		{ID: "b3", Pos: geo.Point{X: 0, Y: 25}},
		{ID: "b4", Pos: geo.Point{X: 20, Y: 12}},
	}
}

func buildDB(t testing.TB) *FingerprintDB {
	t.Helper()
	db, err := BuildFingerprintDB(storeBeacons(), geo.Point{X: 0, Y: 0}, geo.Point{X: 40, Y: 25}, 2, DefaultRadioModel())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRadioModelMonotone(t *testing.T) {
	m := DefaultRadioModel()
	prev := m.MeanRSSI(1)
	for _, d := range []float64{2, 5, 10, 20, 50} {
		cur := m.MeanRSSI(d)
		if cur >= prev {
			t.Fatalf("RSSI not decreasing at %vm: %v >= %v", d, cur, prev)
		}
		prev = cur
	}
	// Below the reference distance it clamps.
	if m.MeanRSSI(0.1) != m.MeanRSSI(1) {
		t.Fatal("sub-reference distance not clamped")
	}
}

func TestFingerprintDBSize(t *testing.T) {
	db := buildDB(t)
	// 21 x 13 grid: x in 0..40 step 2 (21), y in 0..24 step 2 (13).
	if db.Size() != 21*13 {
		t.Fatalf("Size = %d", db.Size())
	}
	if _, err := BuildFingerprintDB(nil, geo.Point{}, geo.Point{X: 1, Y: 1}, 1, DefaultRadioModel()); err == nil {
		t.Fatal("no-beacon survey accepted")
	}
	if _, err := BuildFingerprintDB(storeBeacons(), geo.Point{X: 1, Y: 1}, geo.Point{}, 1, DefaultRadioModel()); err == nil {
		t.Fatal("inverted bounds accepted")
	}
}

func TestLocalizeNoiseless(t *testing.T) {
	db := buildDB(t)
	model := DefaultRadioModel()
	model.ShadowSigmaDB = 0 // noiseless cue
	rng := rand.New(rand.NewSource(1))
	for _, truth := range []geo.Point{{X: 10, Y: 10}, {X: 35, Y: 5}, {X: 20, Y: 12}, {X: 2, Y: 22}} {
		cue := SynthesizeRSSICue(truth, storeBeacons(), model, rng)
		fix, ok := db.Localize(cue)
		if !ok {
			t.Fatalf("no fix at %v", truth)
		}
		if d := fix.Local.Dist(truth); d > 3 {
			t.Fatalf("noiseless error %v m at %v (est %v)", d, truth, fix.Local)
		}
	}
}

func TestLocalizeNoisyMedianError(t *testing.T) {
	db := buildDB(t)
	rng := rand.New(rand.NewSource(2))
	var errs []float64
	for trial := 0; trial < 100; trial++ {
		truth := geo.Point{X: rng.Float64() * 40, Y: rng.Float64() * 25}
		cue := SynthesizeRSSICue(truth, storeBeacons(), DefaultRadioModel(), rng)
		fix, ok := db.Localize(cue)
		if !ok {
			t.Fatal("no fix")
		}
		errs = append(errs, fix.Local.Dist(truth))
	}
	sort.Float64s(errs)
	median := errs[len(errs)/2]
	// Indoor fingerprinting typically achieves 2–5m; allow headroom.
	if median > 8 {
		t.Fatalf("median error %v m", median)
	}
}

func TestLocalizeUnknownBeacons(t *testing.T) {
	db := buildDB(t)
	cue := Cue{Technology: TechWiFiRSSI, RSSI: map[string]float64{"alien": -50}}
	if _, ok := db.Localize(cue); ok {
		t.Fatal("localized with foreign beacons")
	}
	if _, ok := db.Localize(Cue{Technology: TechGPS}); ok {
		t.Fatal("localized a GPS cue")
	}
	if _, ok := db.Localize(Cue{Technology: TechWiFiRSSI}); ok {
		t.Fatal("localized an empty cue")
	}
}

func TestFiducial(t *testing.T) {
	idx := NewFiducialIndex([]Fiducial{
		{ID: "qr-entrance", Pos: geo.Point{X: 0, Y: 1}},
		{ID: "qr-aisle3", Pos: geo.Point{X: 18, Y: 10}},
	})
	fix, ok := idx.Localize(Cue{Technology: TechFiducial, TagID: "qr-aisle3"})
	if !ok {
		t.Fatal("no fix")
	}
	if fix.Local != (geo.Point{X: 18, Y: 10}) || fix.Confidence < 0.9 {
		t.Fatalf("fix = %+v", fix)
	}
	if _, ok := idx.Localize(Cue{Technology: TechFiducial, TagID: "unknown"}); ok {
		t.Fatal("unknown tag localized")
	}
	if _, ok := idx.Localize(Cue{Technology: TechWiFiRSSI}); ok {
		t.Fatal("wrong technology accepted")
	}
}

func TestGPSModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	truth := geo.LatLng{Lat: 40.44, Lng: -79.99}
	g := DefaultGPSModel()

	meanErr := func(indoor bool, n int) float64 {
		var sum float64
		for i := 0; i < n; i++ {
			cue, ok := g.Sample(truth, indoor, rng)
			if !ok {
				t.Fatal("denied unexpectedly")
			}
			sum += geo.DistanceMeters(truth, *cue.GPS)
		}
		return sum / float64(n)
	}
	out := meanErr(false, 200)
	in := meanErr(true, 200)
	if out > 10 {
		t.Fatalf("outdoor mean error %v m", out)
	}
	if in < 2*out {
		t.Fatalf("indoor error %v not much worse than outdoor %v", in, out)
	}
	denied := GPSModel{OutdoorSigmaMeters: 5, IndoorSigmaMeters: 0, IndoorDenied: true}
	if _, ok := denied.Sample(truth, true, rng); ok {
		t.Fatal("denial ignored")
	}
	if _, ok := denied.Sample(truth, false, rng); !ok {
		t.Fatal("outdoor denied")
	}
}

func TestDeadReckonerDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dr := NewDeadReckoner(geo.Point{}, 0.03, rng)
	truth := geo.Point{}
	for i := 0; i < 100; i++ {
		step := geo.Point{X: 1, Y: 0.5}
		truth = truth.Add(step)
		dr.Advance(step)
	}
	est, sigma := dr.Estimate()
	if sigma <= 0 {
		t.Fatal("sigma not growing")
	}
	// Error should be bounded by a few sigma.
	if d := est.Dist(truth); d > 6*sigma+1 {
		t.Fatalf("drift error %v m with sigma %v", d, sigma)
	}
	dr.Reset(truth)
	if _, s := dr.Estimate(); s != 0 {
		t.Fatal("reset did not clear sigma")
	}
}

func TestSynthesizeRSSICueDropsWeakBeacons(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	far := []Beacon{{ID: "far", Pos: geo.Point{X: 100000, Y: 0}}}
	cue := SynthesizeRSSICue(geo.Point{}, far, DefaultRadioModel(), rng)
	if len(cue.RSSI) != 0 {
		t.Fatalf("unhearable beacon reported: %v", cue.RSSI)
	}
}

func TestFingerprintAccuracyBeatsIndoorGPS(t *testing.T) {
	// The motivating comparison for E7: indoors, fingerprinting error is
	// far below GPS error.
	db := buildDB(t)
	rng := rand.New(rand.NewSource(6))
	g := DefaultGPSModel()
	anchor := geo.LatLng{Lat: 40.44, Lng: -79.99}
	proj := geo.NewLocalProjection(anchor)
	var fpErr, gpsErr float64
	const trials = 100
	for i := 0; i < trials; i++ {
		truth := geo.Point{X: rng.Float64() * 40, Y: rng.Float64() * 25}
		cue := SynthesizeRSSICue(truth, storeBeacons(), DefaultRadioModel(), rng)
		fix, ok := db.Localize(cue)
		if !ok {
			t.Fatal("no fix")
		}
		fpErr += fix.Local.Dist(truth)
		gcue, ok := g.Sample(proj.ToLatLng(truth), true, rng)
		if !ok {
			t.Fatal("gps denied")
		}
		gpsErr += proj.ToPoint(*gcue.GPS).Dist(truth)
	}
	fpErr /= trials
	gpsErr /= trials
	if fpErr*2 > gpsErr {
		t.Fatalf("fingerprint %.1fm vs GPS %.1fm — expected clear win", fpErr, gpsErr)
	}
}

func TestLocalizeConfidenceRange(t *testing.T) {
	db := buildDB(t)
	rng := rand.New(rand.NewSource(7))
	cue := SynthesizeRSSICue(geo.Point{X: 20, Y: 12}, storeBeacons(), DefaultRadioModel(), rng)
	fix, ok := db.Localize(cue)
	if !ok {
		t.Fatal("no fix")
	}
	if fix.Confidence <= 0 || fix.Confidence > 1 {
		t.Fatalf("confidence = %v", fix.Confidence)
	}
	if fix.SigmaMeters <= 0 || math.IsNaN(fix.SigmaMeters) {
		t.Fatalf("sigma = %v", fix.SigmaMeters)
	}
}
