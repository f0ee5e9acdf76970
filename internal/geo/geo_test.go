package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceKnownPairs(t *testing.T) {
	tests := []struct {
		name string
		a, b LatLng
		want float64 // meters
		tol  float64 // relative tolerance
	}{
		{"same point", LatLng{40, -80}, LatLng{40, -80}, 0, 0},
		{"one degree lat at equator", LatLng{0, 0}, LatLng{1, 0}, 111195, 0.01},
		{"one degree lng at equator", LatLng{0, 0}, LatLng{0, 1}, 111195, 0.01},
		{"pittsburgh to nyc", LatLng{40.4406, -79.9959}, LatLng{40.7128, -74.0060}, 508000, 0.02},
		{"antipodal", LatLng{0, 0}, LatLng{0, 180}, math.Pi * EarthRadiusMeters, 0.001},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := DistanceMeters(tt.a, tt.b)
			if tt.want == 0 {
				if got != 0 {
					t.Fatalf("got %v want 0", got)
				}
				return
			}
			if rel := math.Abs(got-tt.want) / tt.want; rel > tt.tol {
				t.Fatalf("got %v want %v (rel err %v)", got, tt.want, rel)
			}
		})
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(aLat, aLng, bLat, bLng float64) bool {
		a := LatLng{math.Mod(aLat, 90), math.Mod(aLng, 180)}
		b := LatLng{math.Mod(bLat, 90), math.Mod(bLng, 180)}
		d1 := DistanceMeters(a, b)
		d2 := DistanceMeters(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(aLat, aLng, bLat, bLng, cLat, cLng float64) bool {
		a := LatLng{math.Mod(aLat, 90), math.Mod(aLng, 180)}
		b := LatLng{math.Mod(bLat, 90), math.Mod(bLng, 180)}
		c := LatLng{math.Mod(cLat, 90), math.Mod(cLng, 180)}
		return DistanceMeters(a, c) <= DistanceMeters(a, b)+DistanceMeters(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetRoundTrip(t *testing.T) {
	start := LatLng{40.44, -79.99}
	for _, d := range []float64{10, 100, 1000, 10000} {
		for _, brg := range []float64{0, 45, 90, 135, 180, 270, 359} {
			got := Offset(start, d, brg)
			back := DistanceMeters(start, got)
			if math.Abs(back-d)/d > 0.001 {
				t.Fatalf("offset %vm bearing %v: round-trip distance %v", d, brg, back)
			}
		}
	}
}

func TestOffsetBearing(t *testing.T) {
	start := LatLng{40, -80}
	end := Offset(start, 5000, 90)
	brg := InitialBearing(start, end)
	if math.Abs(brg-90) > 0.1 {
		t.Fatalf("bearing = %v, want ~90", brg)
	}
}

func TestNormalized(t *testing.T) {
	tests := []struct {
		in, want LatLng
	}{
		{LatLng{95, 0}, LatLng{90, 0}},
		{LatLng{-95, 0}, LatLng{-90, 0}},
		{LatLng{0, 190}, LatLng{0, -170}},
		{LatLng{0, -190}, LatLng{0, 170}},
		{LatLng{45, 45}, LatLng{45, 45}},
	}
	for _, tt := range tests {
		if got := tt.in.Normalized(); got != tt.want {
			t.Errorf("Normalized(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestIsValid(t *testing.T) {
	if !(LatLng{45, 45}).IsValid() {
		t.Error("valid point reported invalid")
	}
	for _, bad := range []LatLng{{91, 0}, {-91, 0}, {0, 181}, {0, -181}, {math.NaN(), 0}} {
		if bad.IsValid() {
			t.Errorf("%v reported valid", bad)
		}
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{MinLat: 40, MinLng: -80, MaxLat: 41, MaxLng: -79}
	if !r.Contains(LatLng{40.5, -79.5}) {
		t.Error("center not contained")
	}
	if !r.Contains(LatLng{40, -80}) {
		t.Error("corner not contained (inclusive)")
	}
	if r.Contains(LatLng{39.9, -79.5}) {
		t.Error("outside point contained")
	}
}

func TestRectIntersectsUnion(t *testing.T) {
	a := Rect{MinLat: 0, MinLng: 0, MaxLat: 2, MaxLng: 2}
	b := Rect{MinLat: 1, MinLng: 1, MaxLat: 3, MaxLng: 3}
	c := Rect{MinLat: 5, MinLng: 5, MaxLat: 6, MaxLng: 6}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("overlapping rects do not intersect")
	}
	if a.Intersects(c) {
		t.Error("disjoint rects intersect")
	}
	u := a.Union(b)
	want := Rect{MinLat: 0, MinLng: 0, MaxLat: 3, MaxLng: 3}
	if u != want {
		t.Errorf("Union = %v, want %v", u, want)
	}
	if a.Union(EmptyRect()) != a {
		t.Error("union with empty lost the rect")
	}
	if EmptyRect().Intersects(a) {
		t.Error("empty rect intersects")
	}
}

// containsRect reports whether r contains all of s.
func containsRect(r, s Rect) bool {
	return s.MinLat >= r.MinLat && s.MaxLat <= r.MaxLat && s.MinLng >= r.MinLng && s.MaxLng <= r.MaxLng
}

func TestRectUnionCommutativeProperty(t *testing.T) {
	f := func(a1, b1, a2, b2, c1, d1, c2, d2 float64) bool {
		r1 := Rect{MinLat: math.Min(a1, a2), MaxLat: math.Max(a1, a2),
			MinLng: math.Min(b1, b2), MaxLng: math.Max(b1, b2)}
		r2 := Rect{MinLat: math.Min(c1, c2), MaxLat: math.Max(c1, c2),
			MinLng: math.Min(d1, d2), MaxLng: math.Max(d1, d2)}
		u1 := r1.Union(r2)
		u2 := r2.Union(r1)
		return u1 == u2 && containsRect(u1, r1) && containsRect(u1, r2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRectExpandedMeters(t *testing.T) {
	r := RectFromCenter(LatLng{40, -80}, 0.01, 0.01)
	e := r.ExpandedMeters(1000)
	if !containsRect(e, r) {
		t.Fatal("expanded rect does not contain original")
	}
	// 1000m of latitude is about 0.009 degrees.
	growth := (e.MaxLat - e.MinLat) - (r.MaxLat - r.MinLat)
	if math.Abs(growth-2*1000/MetersPerDegreeLat) > 1e-9 {
		t.Fatalf("latitude growth = %v", growth)
	}
}

func TestLocalProjectionRoundTrip(t *testing.T) {
	lp := NewLocalProjection(LatLng{40.44, -79.99})
	f := func(dx, dy float64) bool {
		p := Point{math.Mod(dx, 5000), math.Mod(dy, 5000)}
		q := lp.ToPoint(lp.ToLatLng(p))
		return math.Abs(q.X-p.X) < 1e-6 && math.Abs(q.Y-p.Y) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLocalProjectionAccuracy(t *testing.T) {
	origin := LatLng{40.44, -79.99}
	lp := NewLocalProjection(origin)
	target := Offset(origin, 1000, 60)
	p := lp.ToPoint(target)
	if math.Abs(p.Norm()-1000) > 2 {
		t.Fatalf("projected distance %v, want ~1000", p.Norm())
	}
}

func TestPointOps(t *testing.T) {
	a := Point{3, 4}
	b := Point{1, 2}
	if a.Norm() != 5 {
		t.Errorf("Norm = %v", a.Norm())
	}
	if a.Add(b) != (Point{4, 6}) || a.Sub(b) != (Point{2, 2}) {
		t.Error("Add/Sub wrong")
	}
	if a.Scale(2) != (Point{6, 8}) {
		t.Error("Scale wrong")
	}
	if a.Dot(b) != 11 {
		t.Error("Dot wrong")
	}
	if a.Dist(b) != math.Hypot(2, 2) {
		t.Error("Dist wrong")
	}
}

func TestClosestPointOnSegment(t *testing.T) {
	a := LatLng{40, -80}
	b := Offset(a, 1000, 90) // due east
	// A point north of the segment midpoint should snap to ~midpoint.
	mid := Interpolate(a, b, 0.5)
	p := Offset(mid, 100, 0)
	cp, tfrac := ClosestPointOnSegment(p, a, b)
	if math.Abs(tfrac-0.5) > 0.01 {
		t.Fatalf("t = %v, want ~0.5", tfrac)
	}
	if d := DistanceMeters(cp, mid); d > 5 {
		t.Fatalf("closest point %v m from midpoint", d)
	}
	// Beyond the endpoints it clamps.
	beyond := Offset(b, 500, 90)
	cp2, t2 := ClosestPointOnSegment(beyond, a, b)
	if t2 != 1 || DistanceMeters(cp2, b) > 1 {
		t.Fatalf("clamping failed: t=%v d=%v", t2, DistanceMeters(cp2, b))
	}
	// Degenerate segment.
	cp3, t3 := ClosestPointOnSegment(p, a, a)
	if cp3 != a || t3 != 0 {
		t.Fatal("degenerate segment mishandled")
	}
}

func TestInterpolate(t *testing.T) {
	a := LatLng{40, -80}
	b := LatLng{41, -79}
	if Interpolate(a, b, 0) != a || Interpolate(a, b, 1) != b {
		t.Error("endpoints wrong")
	}
	m := Interpolate(a, b, 0.5)
	if m.Lat != 40.5 || m.Lng != -79.5 {
		t.Errorf("midpoint = %v", m)
	}
}
