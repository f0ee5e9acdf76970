package tiles

import (
	"bytes"
	"image/color"
	"math"
	"testing"

	"openflame/internal/geo"
	"openflame/internal/osm"
	"openflame/internal/raster"
)

func TestFromLatLngKnownTiles(t *testing.T) {
	// Zoom 0: the whole world is tile 0/0/0.
	if got := FromLatLng(geo.LatLng{Lat: 40, Lng: -80}, 0); got != (Coord{0, 0, 0}) {
		t.Fatalf("z0 = %v", got)
	}
	// Zoom 1: northwest quadrant.
	if got := FromLatLng(geo.LatLng{Lat: 40, Lng: -80}, 1); got != (Coord{1, 0, 0}) {
		t.Fatalf("z1 = %v", got)
	}
	// Equator/prime meridian at zoom 1 is the southeast quadrant corner.
	if got := FromLatLng(geo.LatLng{Lat: -0.1, Lng: 0.1}, 1); got != (Coord{1, 1, 1}) {
		t.Fatalf("z1 se = %v", got)
	}
}

func TestTileBoundsRoundTrip(t *testing.T) {
	ll := geo.LatLng{Lat: 40.4406, Lng: -79.9959}
	for _, z := range []int{5, 10, 14, 18} {
		c := FromLatLng(ll, z)
		b := c.Bounds()
		if !b.Contains(ll) {
			t.Fatalf("z%d tile %v bounds %v miss the point", z, c, b)
		}
	}
}

func TestCoordValid(t *testing.T) {
	for _, c := range []Coord{{0, 0, 0}, {1, 1, 1}, {MaxZoom, 1<<MaxZoom - 1, 0}} {
		if !c.Valid() {
			t.Errorf("%v rejected", c)
		}
	}
	for _, c := range []Coord{{-1, 0, 0}, {MaxZoom + 1, 0, 0}, {22, -1, 0}, {22, 0, -1},
		{22, 1 << 22, 0}, {3, 0, 8}, {0, 1, 0}} {
		if c.Valid() {
			t.Errorf("%v accepted", c)
		}
	}
}

func TestTileBoundsAdjacent(t *testing.T) {
	c := Coord{Z: 10, X: 300, Y: 380}
	right := Coord{Z: 10, X: 301, Y: 380}
	if math.Abs(c.Bounds().MaxLng-right.Bounds().MinLng) > 1e-9 {
		t.Fatal("adjacent tiles do not share an edge")
	}
}

func TestCovering(t *testing.T) {
	r := geo.RectFromCenter(geo.LatLng{Lat: 40.44, Lng: -79.99}, 0.01, 0.01)
	tilesAt14 := Covering(r, 14)
	if len(tilesAt14) == 0 {
		t.Fatal("empty covering")
	}
	// All covering tiles intersect the rect; union contains the rect center.
	found := false
	for _, c := range tilesAt14 {
		if !c.Bounds().Intersects(r) {
			t.Fatalf("tile %v does not intersect", c)
		}
		if c.Bounds().Contains(r.Center()) {
			found = true
		}
	}
	if !found {
		t.Fatal("no tile contains the center")
	}
	if Covering(geo.EmptyRect(), 10) != nil {
		t.Fatal("empty rect covered")
	}
}

func townMap(t *testing.T) *osm.Map {
	t.Helper()
	mb := osm.NewBuilder("town", osm.Frame{Kind: osm.FrameGeodetic})
	a := mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4400, Lng: -79.9960}})
	b := mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4420, Lng: -79.9940}})
	if _, err := mb.AddWay(&osm.Way{NodeIDs: []osm.NodeID{a, b},
		Tags: osm.Tags{osm.TagHighway: "primary", osm.TagName: "Forbes"}}); err != nil {
		t.Fatal(err)
	}
	// A building square.
	var ring []osm.NodeID
	for _, d := range [][2]float64{{40.4405, -79.9955}, {40.4405, -79.9950}, {40.4409, -79.9950}, {40.4409, -79.9955}} {
		ring = append(ring, mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: d[0], Lng: d[1]}}))
	}
	ring = append(ring, ring[0])
	if _, err := mb.AddWay(&osm.Way{NodeIDs: ring, Tags: osm.Tags{osm.TagBuilding: "yes"}}); err != nil {
		t.Fatal(err)
	}
	mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4407, Lng: -79.9952},
		Tags: osm.Tags{osm.TagName: "Corner Grocery", osm.TagShop: "grocery"}})
	return mb.Build()
}

func TestRenderProducesContent(t *testing.T) {
	m := townMap(t)
	style := DefaultStyle()
	r := NewRenderer(m, style)
	c := FromLatLng(geo.LatLng{Lat: 40.441, Lng: -79.995}, 16)
	canvas := r.Render(c)
	n := canvas.CountNonBackground(style.Background)
	if n < 50 {
		t.Fatalf("rendered only %d foreground pixels", n)
	}
}

func TestRenderEmptyFarTile(t *testing.T) {
	m := townMap(t)
	style := DefaultStyle()
	r := NewRenderer(m, style)
	far := FromLatLng(geo.LatLng{Lat: -33, Lng: 151}, 16) // Sydney
	canvas := r.Render(far)
	if canvas.CountNonBackground(style.Background) != 0 {
		t.Fatal("far tile has content")
	}
}

func TestRenderPNG(t *testing.T) {
	m := townMap(t)
	r := NewRenderer(m, DefaultStyle())
	c := FromLatLng(geo.LatLng{Lat: 40.441, Lng: -79.995}, 16)
	png, err := r.RenderPNG(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(png) == 0 || !bytes.HasPrefix(png, []byte("\x89PNG")) {
		t.Fatal("not a PNG")
	}
	img, err := raster.DecodePNG(bytes.NewReader(png))
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != Size {
		t.Fatalf("tile width %d", img.Bounds().Dx())
	}
}

func TestCache(t *testing.T) {
	m := townMap(t)
	cache := NewCache(NewRenderer(m, DefaultStyle()))
	c := FromLatLng(geo.LatLng{Lat: 40.441, Lng: -79.995}, 15)
	b1, err := cache.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := cache.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cache returned different bytes")
	}
	if cache.Hits != 1 || cache.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", cache.Hits, cache.Misses)
	}
}

func TestPrerender(t *testing.T) {
	m := townMap(t)
	cache := NewCache(NewRenderer(m, DefaultStyle()))
	n, err := cache.Prerender(m.Bounds(), 14, 16)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || cache.Len() == 0 {
		t.Fatal("nothing prerendered")
	}
	if cache.Len() != n {
		t.Fatalf("cache len %d != rendered %d", cache.Len(), n)
	}
	// Subsequent gets are all hits.
	before := cache.Misses
	if _, err := cache.Get(FromLatLng(geo.LatLng{Lat: 40.4407, Lng: -79.9952}, 15)); err != nil {
		t.Fatal(err)
	}
	if cache.Misses != before {
		t.Fatal("prerendered tile missed")
	}
}

func TestStitchOverlaysIndoorOnOutdoor(t *testing.T) {
	outdoor := townMap(t)
	// Indoor map anchored inside the building.
	indoorB := osm.NewBuilder("store", osm.Frame{
		Kind:   osm.FrameLocal,
		Anchor: geo.LatLng{Lat: 40.4406, Lng: -79.9954},
	})
	a := indoorB.AddNode(&osm.Node{Local: geo.Point{X: 0, Y: 0}})
	b := indoorB.AddNode(&osm.Node{Local: geo.Point{X: 20, Y: 0}})
	if _, err := indoorB.AddWay(&osm.Way{NodeIDs: []osm.NodeID{a, b},
		Tags: osm.Tags{osm.TagHighway: "corridor", osm.TagIndoor: "yes"}}); err != nil {
		t.Fatal(err)
	}

	style := DefaultStyle()
	indoorStyle := DefaultStyle()
	indoorStyle.Road = color.RGBA{0, 120, 255, 255}

	c := FromLatLng(geo.LatLng{Lat: 40.4406, Lng: -79.9954}, 17)
	base := NewRenderer(outdoor, style).Render(c)
	indoor := indoorB.Build()
	over := NewRenderer(indoor, indoorStyle).Render(c)
	overCount := over.CountNonBackground(indoorStyle.Background)
	if overCount == 0 {
		t.Fatal("indoor layer empty")
	}
	stitched := Stitch([]*raster.Canvas{base, over}, []color.RGBA{style.Background, indoorStyle.Background})
	if stitched.CountNonBackground(style.Background) < overCount {
		t.Fatal("stitched tile lost indoor content")
	}
}

func TestStitchEmpty(t *testing.T) {
	out := Stitch(nil, nil)
	if out.W != Size || out.H != Size {
		t.Fatal("empty stitch wrong size")
	}
}

func BenchmarkRenderTileZ16(b *testing.B) {
	mb := osm.NewBuilder("bench", osm.Frame{Kind: osm.FrameGeodetic})
	// A denser map: 20 streets.
	for i := 0; i < 20; i++ {
		a := mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.44 + float64(i)*0.0002, Lng: -79.998}})
		bb := mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.44 + float64(i)*0.0002, Lng: -79.992}})
		if _, err := mb.AddWay(&osm.Way{NodeIDs: []osm.NodeID{a, bb},
			Tags: osm.Tags{osm.TagHighway: "residential"}}); err != nil {
			b.Fatal(err)
		}
	}
	m := mb.Build()
	r := NewRenderer(m, DefaultStyle())
	c := FromLatLng(geo.LatLng{Lat: 40.442, Lng: -79.995}, 16)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Render(c)
	}
}
