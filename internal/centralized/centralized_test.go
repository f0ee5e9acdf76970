package centralized

import (
	"strings"
	"testing"

	"openflame/internal/align"
	"openflame/internal/geo"
	"openflame/internal/osm"
	"openflame/internal/tiles"
	"openflame/internal/wire"
	"openflame/internal/worldgen"
)

func buildWorldSystem(t testing.TB) (*System, *worldgen.World) {
	t.Helper()
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	sources := []Source{{Map: w.Outdoor}}
	for _, s := range w.Stores {
		ga, err := align.FitGeo(s.Correspondences)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, Source{Map: s.Map, Alignment: ga})
	}
	sys, err := Build(sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys, w
}

func TestMergeCounts(t *testing.T) {
	sys, w := buildWorldSystem(t)
	want := w.Outdoor.NodeCount()
	for _, s := range w.Stores {
		// Each store's portal node fuses with the outdoor portal node.
		want += s.Map.NodeCount() - 1
	}
	if got := sys.Merged().NodeCount(); got != want {
		t.Fatalf("merged nodes = %d, want %d", got, want)
	}
	if sys.PreprocessDuration <= 0 {
		t.Fatal("preprocess duration not recorded")
	}
}

func TestMergedMapIsGeodetic(t *testing.T) {
	sys, w := buildWorldSystem(t)
	if sys.Merged().Frame.Kind != osm.FrameGeodetic {
		t.Fatal("merged map not geodetic")
	}
	// A store shelf's merged position is near its store entrance.
	product := w.Stores[0].Products[0]
	resp := sys.Search(wire.SearchRequest{Query: product})
	if len(resp.Results) == 0 {
		t.Fatalf("product %q not in global index", product)
	}
	entrance := w.Stores[0].Correspondences[len(w.Stores[0].Correspondences)-1].World
	if d := geo.DistanceMeters(resp.Results[0].Position, entrance); d > 60 {
		t.Fatalf("shelf %v m from its store", d)
	}
}

func TestGlobalRouteCrossesPortal(t *testing.T) {
	sys, w := buildWorldSystem(t)
	store := w.Stores[0]
	product := store.Products[len(store.Products)-1]
	shelfResp := sys.Search(wire.SearchRequest{Query: product})
	if len(shelfResp.Results) == 0 {
		t.Fatal("no shelf")
	}
	from := geo.LatLng{Lat: 40.4400, Lng: -79.9990}
	route := sys.Route(wire.RouteRequest{From: from, To: shelfResp.Results[0].Position})
	if !route.Found {
		t.Fatal("no global route street→shelf")
	}
	entrance := store.Correspondences[len(store.Correspondences)-1].World
	nearPortal := false
	for _, p := range route.Points {
		if geo.DistanceMeters(p.Position, entrance) < 10 {
			nearPortal = true
		}
	}
	if !nearPortal {
		t.Fatal("global route does not pass the fused portal")
	}
}

func TestGeocodeAndRGeocode(t *testing.T) {
	sys, _ := buildWorldSystem(t)
	g := sys.Geocode(wire.GeocodeRequest{Query: "1st Street", Limit: 3})
	if len(g.Results) == 0 {
		t.Fatal("no geocode results")
	}
	rg := sys.RGeocode(wire.RGeocodeRequest{Position: g.Results[0].Position, MaxMeters: 300})
	if !rg.Found {
		t.Fatal("rgeocode found nothing")
	}
}

func TestPrerenderAndTile(t *testing.T) {
	sys, _ := buildWorldSystem(t)
	n, err := sys.PrerenderTiles(14, 15)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing prerendered")
	}
	png, err := sys.Tile(tiles.FromLatLng(geo.LatLng{Lat: 40.4420, Lng: -79.9960}, 15))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(png), "\x89PNG") {
		t.Fatal("not a PNG")
	}
	if _, err := sys.Tile(tiles.Coord{Z: -1}); err == nil {
		t.Fatal("bad zoom accepted")
	}
}

func TestUpdateAndRebuild(t *testing.T) {
	sys, w := buildWorldSystem(t)
	store := w.Stores[0]
	shelf := store.Map.FindNodes(func(n *osm.Node) bool {
		return n.Tags.Get(osm.TagProduct) == store.Products[0]
	})[0]
	if err := sys.UpdateAndRebuild(1, shelf.ID, osm.Tags{
		osm.TagName: "yuzu juice shelf", osm.TagProduct: "yuzu juice", osm.TagIndoor: "yes"}); err != nil {
		t.Fatal(err)
	}
	if got := sys.Search(wire.SearchRequest{Query: "yuzu"}); len(got.Results) == 0 {
		t.Fatal("update not visible after rebuild")
	}
	if err := sys.UpdateAndRebuild(99, 1, nil); err == nil {
		t.Fatal("bad source index accepted")
	}
	if err := sys.UpdateAndRebuild(0, 999999, nil); err == nil {
		t.Fatal("bad node accepted")
	}
}

func TestMergeValidation(t *testing.T) {
	if _, err := MergeSources([]Source{{Map: nil}}); err == nil {
		t.Fatal("nil map accepted")
	}
	local := osm.NewBuilder("x", osm.Frame{Kind: osm.FrameLocal}).Build()
	if _, err := MergeSources([]Source{{Map: local}}); err == nil {
		t.Fatal("local map without alignment accepted")
	}
}

func TestRouteOptimalVsFederatedBound(t *testing.T) {
	// The centralized route is a lower bound: route cost street→shelf must
	// be <= outdoor-walk + indoor-walk done separately (sanity property
	// behind E5's stretch metric).
	sys, w := buildWorldSystem(t)
	store := w.Stores[0]
	entrance := store.Correspondences[len(store.Correspondences)-1].World
	from := geo.LatLng{Lat: 40.4400, Lng: -79.9990}
	product := store.Products[len(store.Products)-1]
	shelfResp := sys.Search(wire.SearchRequest{Query: product})
	full := sys.Route(wire.RouteRequest{From: from, To: shelfResp.Results[0].Position})
	toDoor := sys.Route(wire.RouteRequest{From: from, To: entrance})
	fromDoor := sys.Route(wire.RouteRequest{From: entrance, To: shelfResp.Results[0].Position})
	if !full.Found || !toDoor.Found || !fromDoor.Found {
		t.Fatal("missing route")
	}
	if full.CostSeconds > toDoor.CostSeconds+fromDoor.CostSeconds+1e-6 {
		t.Fatalf("global route %v s worse than concatenation %v s",
			full.CostSeconds, toDoor.CostSeconds+fromDoor.CostSeconds)
	}
}
