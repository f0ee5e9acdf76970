package align

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"openflame/internal/geo"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestApplyKnownTransform(t *testing.T) {
	// Scale 2, rotate 90° CCW, translate (1, 1).
	m := Similarity2{Scale: 2, Rotation: math.Pi / 2, T: geo.Point{X: 1, Y: 1}}
	got := m.Apply(geo.Point{X: 1, Y: 0})
	want := geo.Point{X: 1, Y: 3} // (1,0) → rot90 → (0,1) → x2 → (0,2) → +t → (1,3)
	if !approxEq(got.X, want.X, 1e-12) || !approxEq(got.Y, want.Y, 1e-12) {
		t.Fatalf("Apply = %v, want %v", got, want)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	f := func(s, th, tx, ty, px, py float64) bool {
		sc := 0.1 + math.Abs(math.Mod(s, 10))
		m := Similarity2{Scale: sc, Rotation: math.Mod(th, math.Pi), T: geo.Point{X: math.Mod(tx, 100), Y: math.Mod(ty, 100)}}
		p := geo.Point{X: math.Mod(px, 1000), Y: math.Mod(py, 1000)}
		q := m.Inverse().Apply(m.Apply(p))
		return approxEq(q.X, p.X, 1e-6) && approxEq(q.Y, p.Y, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFitRecoversKnownTransform(t *testing.T) {
	truth := Similarity2{Scale: 1.7, Rotation: 0.42, T: geo.Point{X: 12, Y: -7}}
	rng := rand.New(rand.NewSource(5))
	var src, dst []geo.Point
	for i := 0; i < 10; i++ {
		p := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		src = append(src, p)
		dst = append(dst, truth.Apply(p))
	}
	got, err := Fit(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(got.Scale, truth.Scale, 1e-9) || !approxEq(got.Rotation, truth.Rotation, 1e-9) {
		t.Fatalf("Fit = %v, want %v", got, truth)
	}
	if RMSE(got, src, dst) > 1e-9 {
		t.Fatalf("RMSE = %v", RMSE(got, src, dst))
	}
}

func TestFitWithNoise(t *testing.T) {
	truth := Similarity2{Scale: 1, Rotation: -0.2, T: geo.Point{X: 3, Y: 4}}
	rng := rand.New(rand.NewSource(6))
	var src, dst []geo.Point
	for i := 0; i < 50; i++ {
		p := geo.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200}
		src = append(src, p)
		noisy := truth.Apply(p)
		noisy.X += rng.NormFloat64() * 0.5
		noisy.Y += rng.NormFloat64() * 0.5
		dst = append(dst, noisy)
	}
	got, err := Fit(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(got.Scale, 1, 0.01) || !approxEq(got.Rotation, -0.2, 0.01) {
		t.Fatalf("noisy fit = %v", got)
	}
	if RMSE(got, src, dst) > 1.0 {
		t.Fatalf("noisy RMSE = %v", RMSE(got, src, dst))
	}
}

func TestFitTwoPoints(t *testing.T) {
	src := []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	dst := []geo.Point{{X: 5, Y: 5}, {X: 5, Y: 25}} // rot 90°, scale 2, t (5,5)
	m, err := Fit(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(m.Scale, 2, 1e-9) || !approxEq(m.Rotation, math.Pi/2, 1e-9) {
		t.Fatalf("fit = %v", m)
	}
}

func TestFitDegenerate(t *testing.T) {
	if _, err := Fit([]geo.Point{{X: 1, Y: 1}}, []geo.Point{{X: 2, Y: 2}}); err == nil {
		t.Fatal("single point accepted")
	}
	same := []geo.Point{{X: 1, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 1}}
	if _, err := Fit(same, same); err == nil {
		t.Fatal("coincident points accepted")
	}
	if _, err := Fit([]geo.Point{{X: 1, Y: 1}}, []geo.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestFitGeoGroceryStore(t *testing.T) {
	// A store's local frame: origin at the entrance, rotated 30° from
	// north, 1:1 scale. Correspondences at three surveyed corners.
	trueAnchor := geo.LatLng{Lat: 40.4400, Lng: -79.9960}
	trueBearing := 30.0 // local +Y axis points 30° east of north
	toWorld := func(p geo.Point) geo.LatLng {
		d := p.Norm()
		if d == 0 {
			return trueAnchor
		}
		brg := geo.RadToDeg(math.Atan2(p.X, p.Y)) + trueBearing
		return geo.Offset(trueAnchor, d, brg)
	}
	var corrs []Correspondence
	for _, p := range []geo.Point{{X: 0, Y: 0}, {X: 40, Y: 0}, {X: 40, Y: 25}, {X: 0, Y: 25}} {
		corrs = append(corrs, Correspondence{Local: p, World: toWorld(p)})
	}
	ga, err := FitGeo(corrs)
	if err != nil {
		t.Fatal(err)
	}
	if rmse := ga.WorldRMSE(corrs); rmse > 0.1 {
		t.Fatalf("world RMSE = %v m", rmse)
	}
	// An interior shelf at local (20, 10) should land inside the store.
	shelf := ga.ToWorld(geo.Point{X: 20, Y: 10})
	want := toWorld(geo.Point{X: 20, Y: 10})
	if d := geo.DistanceMeters(shelf, want); d > 0.2 {
		t.Fatalf("shelf position error = %v m", d)
	}
	// Round trip world → local.
	back := ga.ToLocal(shelf)
	if !approxEq(back.X, 20, 0.1) || !approxEq(back.Y, 10, 0.1) {
		t.Fatalf("ToLocal = %v", back)
	}
}

func TestFitGeoDegenerate(t *testing.T) {
	if _, err := FitGeo(nil); err == nil {
		t.Fatal("empty correspondences accepted")
	}
	if _, err := FitGeo([]Correspondence{{Local: geo.Point{X: 1, Y: 1}, World: geo.LatLng{Lat: 40, Lng: -80}}}); err == nil {
		t.Fatal("single correspondence accepted")
	}
}

func TestSimilarityString(t *testing.T) {
	s := Similarity2{Scale: 1.5, Rotation: math.Pi / 4, T: geo.Point{X: 1, Y: 2}}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}
