package s2cell

import (
	"math/rand"
	"testing"

	"openflame/internal/geo"
)

func TestCoveringRectContainsInteriorPoints(t *testing.T) {
	r := geo.RectFromCenter(geo.LatLng{Lat: 40.44, Lng: -79.99}, 0.01, 0.01)
	cells := Covering(RectRegion{r}, 14, 0)
	if len(cells) == 0 {
		t.Fatal("empty covering")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		p := geo.LatLng{
			Lat: r.MinLat + rng.Float64()*(r.MaxLat-r.MinLat),
			Lng: r.MinLng + rng.Float64()*(r.MaxLng-r.MinLng),
		}
		if !unionContains(cells, FromLatLng(p)) {
			t.Fatalf("covering misses interior point %v", p)
		}
	}
	for _, c := range cells {
		if c.Level() != 14 {
			t.Fatalf("cell level %d, want 14", c.Level())
		}
	}
}

func TestCoveringCap(t *testing.T) {
	cap := geo.Cap{Center: geo.LatLng{Lat: 40.44, Lng: -79.99}, RadiusMeters: 300}
	cells := Covering(CapRegion{cap}, 16, 0)
	if len(cells) == 0 {
		t.Fatal("empty covering")
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		p := geo.Offset(cap.Center, rng.Float64()*300, rng.Float64()*360)
		if !unionContains(cells, FromLatLng(p)) {
			t.Fatalf("cap covering misses interior point %v", p)
		}
	}
	// The covering should not be wildly larger than the cap: no cell center
	// farther than radius + 2 cell diagonals.
	for _, c := range cells {
		d := geo.DistanceMeters(cap.Center, c.LatLng())
		if d > cap.RadiusMeters+3*ApproxEdgeMeters(16) {
			t.Fatalf("covering cell center %v m from cap center", d)
		}
	}
}

func TestCoveringMaxCellsCoarsens(t *testing.T) {
	r := geo.RectFromCenter(geo.LatLng{Lat: 40.44, Lng: -79.99}, 0.05, 0.05)
	fine := Covering(RectRegion{r}, 16, 0)
	capped := Covering(RectRegion{r}, 16, 8)
	if len(capped) > 8 {
		t.Fatalf("capped covering has %d cells", len(capped))
	}
	if len(fine) <= 8 {
		t.Skip("fine covering unexpectedly small; cap not exercised")
	}
	if capped[0].Level() >= 16 {
		t.Fatal("capped covering did not coarsen")
	}
	// Capped covering must still contain the region.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		p := geo.LatLng{
			Lat: r.MinLat + rng.Float64()*(r.MaxLat-r.MinLat),
			Lng: r.MinLng + rng.Float64()*(r.MaxLng-r.MinLng),
		}
		if !unionContains(capped, FromLatLng(p)) {
			t.Fatalf("capped covering misses %v", p)
		}
	}
}

func TestRegistrationCoveringMixedLevels(t *testing.T) {
	r := geo.RectFromCenter(geo.LatLng{Lat: 40.44, Lng: -79.99}, 0.02, 0.02)
	cells := RegistrationCovering(RectRegion{r}, 10, 15)
	if len(cells) == 0 {
		t.Fatal("empty registration covering")
	}
	levels := map[int]int{}
	for _, c := range cells {
		l := c.Level()
		if l < 10 || l > 15 {
			t.Fatalf("cell level %d outside [10,15]", l)
		}
		levels[l]++
	}
	if len(levels) < 2 {
		t.Log("warning: registration covering has a single level; merge may not have triggered")
	}
	// Every interior point is covered.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		p := geo.LatLng{
			Lat: r.MinLat + rng.Float64()*(r.MaxLat-r.MinLat),
			Lng: r.MinLng + rng.Float64()*(r.MaxLng-r.MinLng),
		}
		if !unionContains(cells, FromLatLng(p)) {
			t.Fatalf("registration covering misses %v", p)
		}
	}
	// No cell contains another.
	for i, a := range cells {
		for j, b := range cells {
			if i != j && a.Contains(b) {
				t.Fatalf("normalized covering has nested cells %v ⊃ %v", a, b)
			}
		}
	}
}

func TestNormalizeMergesCompleteSiblings(t *testing.T) {
	parent := FromLatLngLevel(geo.LatLng{Lat: 40, Lng: -80}, 12)
	kids := parent.Children()
	got := normalize(kids[:], 0)
	if len(got) != 1 || got[0] != parent {
		t.Fatalf("normalize(children) = %v, want [%v]", got, parent)
	}
	// Partial sibling sets do not merge.
	got = normalize(kids[:3], 0)
	if len(got) != 3 {
		t.Fatalf("normalize(3 children) merged: %v", got)
	}
	// minLevel prevents merging.
	got = normalize(kids[:], 13)
	if len(got) != 4 {
		t.Fatalf("normalize with minLevel merged: %v", got)
	}
}

func TestNormalizeRecursiveMerge(t *testing.T) {
	// All 16 grandchildren collapse to the grandparent.
	gp := FromLatLngLevel(geo.LatLng{Lat: 40, Lng: -80}, 10)
	var gkids []CellID
	for _, k := range gp.Children() {
		kk := k.Children()
		gkids = append(gkids, kk[:]...)
	}
	got := normalize(gkids, 0)
	if len(got) != 1 || got[0] != gp {
		t.Fatalf("recursive normalize = %v, want [%v]", got, gp)
	}
}

func TestCapRegionPredicates(t *testing.T) {
	c := CapRegion{geo.Cap{Center: geo.LatLng{Lat: 40, Lng: -80}, RadiusMeters: 1000}}
	if !c.IntersectsRect(geo.RectFromCenter(geo.LatLng{Lat: 40, Lng: -80}, 0.001, 0.001)) {
		t.Fatal("center rect not intersecting")
	}
	if c.IntersectsRect(geo.RectFromCenter(geo.LatLng{Lat: 41, Lng: -80}, 0.001, 0.001)) {
		t.Fatal("far rect intersecting")
	}
	if c.IntersectsRect(geo.EmptyRect()) {
		t.Fatal("empty rect intersects")
	}
}

func BenchmarkFromLatLng(b *testing.B) {
	ll := geo.LatLng{Lat: 40.44, Lng: -79.99}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FromLatLng(ll)
	}
}

func BenchmarkCoveringCap500m(b *testing.B) {
	cap := CapRegion{geo.Cap{Center: geo.LatLng{Lat: 40.44, Lng: -79.99}, RadiusMeters: 500}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Covering(cap, 15, 0)
	}
}

func BenchmarkToken(b *testing.B) {
	c := FromLatLng(geo.LatLng{Lat: 40.44, Lng: -79.99})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Token()
	}
}

// unionContains reports whether any cell of union contains c.
func unionContains(union []CellID, c CellID) bool {
	for _, u := range union {
		if u.Contains(c) {
			return true
		}
	}
	return false
}
