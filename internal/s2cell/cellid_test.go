package s2cell

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"openflame/internal/geo"
)

func randLatLng(rng *rand.Rand) geo.LatLng {
	// Stay away from the exact poles where longitude degenerates.
	return geo.LatLng{Lat: rng.Float64()*170 - 85, Lng: rng.Float64()*360 - 180}
}

func TestLeafLevel(t *testing.T) {
	c := FromLatLng(geo.LatLng{Lat: 40.44, Lng: -79.99})
	if !c.IsValid() {
		t.Fatal("leaf cell invalid")
	}
	if c.Level() != MaxLevel {
		t.Fatalf("leaf level = %d", c.Level())
	}
}

func TestFaceCells(t *testing.T) {
	for f := 0; f < 6; f++ {
		c := FromFace(f)
		if !c.IsValid() {
			t.Fatalf("face %d invalid", f)
		}
		if c.Level() != 0 {
			t.Fatalf("face %d level = %d", f, c.Level())
		}
		if c.Face() != f {
			t.Fatalf("face %d reports face %d", f, c.Face())
		}
	}
}

func TestRoundTripCenterContainment(t *testing.T) {
	// The leaf cell of a point, walked up to any level, must contain the
	// leaf of its own center.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		ll := randLatLng(rng)
		leaf := FromLatLng(ll)
		for _, level := range []int{0, 5, 10, 16, 20, 25, 30} {
			cell := leaf.Parent(level)
			center := cell.LatLng()
			if !cell.Contains(FromLatLng(center)) {
				t.Fatalf("cell %v does not contain its center %v (point %v)", cell, center, ll)
			}
		}
	}
}

func TestCenterCloseToPoint(t *testing.T) {
	// The center of a point's level-k cell is within ~1 cell diagonal.
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		ll := randLatLng(rng)
		for _, level := range []int{8, 12, 16, 20} {
			c := FromLatLngLevel(ll, level)
			d := geo.DistanceMeters(ll, c.LatLng())
			// Generous: two diagonals (projection distortion at cube corners).
			if d > 3*ApproxEdgeMeters(level) {
				t.Fatalf("level %d center %v m from point", level, d)
			}
		}
	}
}

func TestParentChildInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		leaf := FromLatLng(randLatLng(rng))
		level := 1 + rng.Intn(MaxLevel-1)
		c := leaf.Parent(level)
		parent := c.ImmediateParent()
		if parent.Level() != level-1 {
			t.Fatalf("parent level = %d, want %d", parent.Level(), level-1)
		}
		if !parent.Contains(c) {
			t.Fatal("parent does not contain child")
		}
		found := false
		for _, ch := range parent.Children() {
			if ch.Level() != level {
				t.Fatalf("child level = %d", ch.Level())
			}
			if !parent.Contains(ch) {
				t.Fatal("parent does not contain enumerated child")
			}
			if ch == c {
				found = true
			}
		}
		if !found {
			t.Fatal("cell not among its parent's children")
		}
	}
}

func TestChildrenDisjointAndCoverParent(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 100; trial++ {
		c := FromLatLng(randLatLng(rng)).Parent(5 + rng.Intn(20))
		kids := c.Children()
		// Hilbert-ordered children partition the parent's leaf range.
		if kids[0].RangeMin() != c.RangeMin() {
			t.Fatal("first child range does not start at parent range")
		}
		if kids[3].RangeMax() != c.RangeMax() {
			t.Fatal("last child range does not end at parent range")
		}
		for i := 0; i < 3; i++ {
			if uint64(kids[i].RangeMax())+2 != uint64(kids[i+1].RangeMin()) {
				t.Fatalf("children %d and %d not contiguous", i, i+1)
			}
			if kids[i].Intersects(kids[i+1]) {
				t.Fatal("siblings intersect")
			}
		}
	}
}

func TestContainsIsPrefixRelation(t *testing.T) {
	a := FromLatLngLevel(geo.LatLng{Lat: 40.44, Lng: -79.99}, 10)
	inside := FromLatLng(a.LatLng())
	if !a.Contains(inside) {
		t.Fatal("cell does not contain leaf at its center")
	}
	outside := FromLatLng(geo.LatLng{Lat: -40, Lng: 100})
	if a.Contains(outside) {
		t.Fatal("cell contains antipodal leaf")
	}
	if !a.Contains(a) {
		t.Fatal("cell does not contain itself")
	}
}

func TestTokenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 500; trial++ {
		c := FromLatLng(randLatLng(rng)).Parent(rng.Intn(MaxLevel + 1))
		tok := c.Token()
		if got := FromToken(tok); got != c {
			t.Fatalf("token round trip: %v -> %q -> %v", c, tok, got)
		}
		if len(tok) > 16 || len(tok) == 0 {
			t.Fatalf("bad token %q", tok)
		}
	}
	if FromToken("") != 0 || FromToken("X") != 0 || FromToken("zz") != 0 ||
		FromToken("00112233445566778899") != 0 {
		t.Fatal("invalid tokens should parse to 0")
	}
	if (CellID(0)).Token() != "X" {
		t.Fatal("zero token should be X")
	}
}

func TestTokenProperty(t *testing.T) {
	f := func(lat, lng float64, lvl uint8) bool {
		ll := geo.LatLng{Lat: math.Mod(lat, 85), Lng: math.Mod(lng, 180)}
		c := FromLatLngLevel(ll, int(lvl)%31)
		return FromToken(c.Token()) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpatialLocality(t *testing.T) {
	// Two points 10m apart share a deep common ancestor; points 1000km
	// apart do not share deep ancestors.
	a := geo.LatLng{Lat: 40.44, Lng: -79.99}
	b := geo.Offset(a, 10, 45)
	far := geo.Offset(a, 1e6, 45)
	ca, cb, cf := FromLatLng(a), FromLatLng(b), FromLatLng(far)
	deep := 0
	for l := 0; l <= MaxLevel; l++ {
		if ca.Parent(l) == cb.Parent(l) {
			deep = l
		} else {
			break
		}
	}
	if deep < 15 {
		t.Fatalf("10m-apart points diverge at level %d, expected >= 15", deep)
	}
	for l := 8; l <= MaxLevel; l++ {
		if ca.Parent(l) == cf.Parent(l) {
			t.Fatalf("1000km-apart points share level-%d cell", l)
		}
	}
}

// inRects reports whether any of rects contains ll.
func inRects(rects []geo.Rect, ll geo.LatLng) bool {
	for _, r := range rects {
		if r.Contains(ll) {
			return true
		}
	}
	return false
}

func TestCellBoundContainsVerticesAndCenter(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 200; trial++ {
		c := FromLatLng(randLatLng(rng)).Parent(2 + rng.Intn(25))
		b := c.BoundRects()
		if !inRects(b, c.LatLng()) {
			t.Fatalf("bound %v missing center of %v", b, c)
		}
		for _, v := range c.Vertices() {
			if !inRects(b, v) {
				t.Fatalf("bound %v missing vertex %v of %v", b, v, c)
			}
		}
	}
}

func TestBoundContainsInteriorPoints(t *testing.T) {
	// Sample random points, find their cell at level 12, check the point is
	// within the (conservative) bound.
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 500; trial++ {
		ll := randLatLng(rng)
		c := FromLatLngLevel(ll, 12)
		if !inRects(c.BoundRects(), ll) {
			t.Fatalf("bound of %v does not contain generating point %v", c, ll)
		}
	}
}

func TestApproxEdgeMeters(t *testing.T) {
	if e0 := ApproxEdgeMeters(0); math.Abs(e0-math.Pi*geo.EarthRadiusMeters/2) > 1 {
		t.Fatalf("level 0 edge = %v", e0)
	}
	for l := 1; l <= 30; l++ {
		if ApproxEdgeMeters(l) >= ApproxEdgeMeters(l-1) {
			t.Fatal("edge length not decreasing")
		}
	}
}

func TestHilbertContinuity(t *testing.T) {
	// Consecutive leaf-range positions within a face correspond to adjacent
	// cells: sample sequential cells at a level and check center distance.
	level := 10
	start := FromLatLngLevel(geo.LatLng{Lat: 40.44, Lng: -79.99}, level)
	prev := start
	step := uint64(lsbForLevel(level)) * 2
	for i := 0; i < 50; i++ {
		next := CellID(uint64(prev) + step)
		if next.Face() != prev.Face() {
			break // walked off the face
		}
		d := geo.DistanceMeters(prev.LatLng(), next.LatLng())
		if d > 2.5*ApproxEdgeMeters(level) {
			t.Fatalf("consecutive cells %d apart: %v m (edge %v m)", i, d, ApproxEdgeMeters(level))
		}
		prev = next
	}
}

func TestSTUVRoundTrip(t *testing.T) {
	f := func(s float64) bool {
		s = math.Abs(math.Mod(s, 1))
		got := uvToST(stToUV(s))
		return math.Abs(got-s) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFaceUVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for trial := 0; trial < 1000; trial++ {
		ll := randLatLng(rng)
		p := latLngToXYZ(ll)
		face, u, v := xyzToFaceUV(p)
		if u < -1.0001 || u > 1.0001 || v < -1.0001 || v > 1.0001 {
			t.Fatalf("uv out of range: %v %v", u, v)
		}
		back := xyzToLatLng(faceUVToXYZ(face, u, v))
		if geo.DistanceMeters(ll, back) > 0.01 {
			t.Fatalf("face/uv round trip error: %v vs %v", ll, back)
		}
	}
}

func TestInvalidCells(t *testing.T) {
	if CellID(0).IsValid() {
		t.Fatal("zero valid")
	}
	if (CellID(7) << posBits).IsValid() {
		t.Fatal("face 7 valid")
	}
	// Odd trailing-zero count is malformed.
	if CellID(uint64(FromFace(0)) << 1).IsValid() {
		t.Fatal("odd-shifted cell valid")
	}
}

func TestBoundRectsAntimeridian(t *testing.T) {
	// A cell straddling the antimeridian must split into two rects that
	// contain points on both sides — and not span the whole globe.
	nearAM := geo.LatLng{Lat: 0, Lng: 179.9999}
	c := FromLatLngLevel(nearAM, 8)
	rects := c.BoundRects()
	contains := func(ll geo.LatLng) bool { return inRects(rects, ll) }
	if !contains(nearAM) {
		t.Fatalf("bound rects %v miss the generating point", rects)
	}
	other := geo.LatLng{Lat: 0, Lng: -179.9999}
	if FromLatLngLevel(other, 8) == c && !contains(other) {
		t.Fatalf("cell contains west-side point but bounds do not")
	}
	// Must not cover Greenwich.
	if contains(geo.LatLng{Lat: 0, Lng: 0}) {
		t.Fatalf("antimeridian cell bounds cover the prime meridian: %v", rects)
	}
}

func TestBoundRectsPole(t *testing.T) {
	// The cell at the north pole reports a full-longitude bound reaching
	// the pole.
	c := FromLatLngLevel(geo.LatLng{Lat: 89.99, Lng: 0}, 4)
	rects := c.BoundRects()
	found := false
	for _, r := range rects {
		if r.MaxLat >= 89.9 && r.Contains(geo.LatLng{Lat: 89.99, Lng: 135}) {
			found = true
		}
	}
	if !found {
		// The pole cell may not be this one at level 4 if the point maps
		// to a non-center cell; only assert the generating point is inside.
		ok := false
		for _, r := range rects {
			if r.Contains(geo.LatLng{Lat: 89.99, Lng: 0}) {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("pole-adjacent cell bounds %v miss the point", rects)
		}
	}
}
