package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"openflame/internal/client"
	"openflame/internal/core"
	"openflame/internal/geo"
	"openflame/internal/loc"
	"openflame/internal/resilience"
	"openflame/internal/wire"
	"openflame/internal/worldgen"
)

// worldFixture deploys the generated world once per test.
func worldFixture(t testing.TB) (*core.Federation, *worldgen.World, *client.Client) {
	t.Helper()
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	f, err := core.DeployWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f, w, f.NewClient()
}

func trueEntrance(s *worldgen.IndoorBundle) geo.LatLng {
	return s.Correspondences[len(s.Correspondences)-1].World
}

func TestSearchFindsProductAcrossFederation(t *testing.T) {
	_, w, c := worldFixture(t)
	store := w.Stores[0]
	product := store.Products[0]
	near := geo.Offset(trueEntrance(store), 60, 180) // on the street outside
	results := c.SearchV2(context.Background(), product, near, 10)
	if len(results) == 0 {
		t.Fatalf("product %q not found near the store", product)
	}
	top := results[0]
	if !strings.Contains(top.Name, product) {
		t.Fatalf("top hit = %+v", top)
	}
	// The hit came from the store's own server, not the world map.
	if top.Source == "world-map" {
		t.Fatalf("product served by world map: %+v", top)
	}
}

func TestSearchOutdoorPOI(t *testing.T) {
	_, w, c := worldFixture(t)
	store := w.Stores[0]
	near := trueEntrance(store)
	// The store itself is a POI on the world map.
	results := c.SearchV2(context.Background(), store.Map.Name, near, 10)
	if len(results) == 0 {
		t.Fatalf("store %q not found", store.Map.Name)
	}
}

func TestSearchFarFromStoresFindsNothingIndoor(t *testing.T) {
	_, w, c := worldFixture(t)
	product := w.Stores[0].Products[0]
	// A corner of the city with no store nearby.
	far := geo.LatLng{Lat: 40.4400, Lng: -79.9990}
	for _, r := range c.SearchV2(context.Background(), product, far, 10) {
		if r.Source != "world-map" && r.DistanceMeters < 100 {
			t.Fatalf("unexpected nearby indoor hit: %+v", r)
		}
	}
}

func TestGeocodeHierarchicalAddress(t *testing.T) {
	_, w, c := worldFixture(t)
	store := w.Stores[0]
	product := store.Products[0]
	// "roasted seaweed shelf, Corner Grocery" — head resolved by the
	// store's map, tail by the world provider (§5.2).
	address := product + " shelf, " + store.Map.Name
	got, err := c.GeocodeV2(context.Background(), address)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got.Name, product) {
		t.Fatalf("geocode = %+v", got)
	}
	// The shelf's resolved position lies within ~50m of the entrance.
	if d := geo.DistanceMeters(got.Position, trueEntrance(store)); d > 50 {
		t.Fatalf("shelf position %v m from entrance", d)
	}
}

func TestGeocodeWorldFallback(t *testing.T) {
	_, _, c := worldFixture(t)
	got, err := c.GeocodeV2(context.Background(), "2nd Street")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name == "" {
		t.Fatalf("geocode = %+v", got)
	}
	if _, err := c.GeocodeV2(context.Background(), ""); err == nil {
		t.Fatal("empty address accepted")
	}
	if _, err := c.GeocodeV2(context.Background(), "xyzzy nowhere"); err == nil {
		t.Fatal("unresolvable address succeeded")
	}
}

func TestReverseGeocode(t *testing.T) {
	_, w, c := worldFixture(t)
	store := w.Stores[0]
	got, ok := c.ReverseGeocodeV2(context.Background(), trueEntrance(store), 100)
	if !ok {
		t.Fatal("reverse geocode found nothing")
	}
	if got.Name == "" {
		t.Fatalf("rgeocode = %+v", got)
	}
}

func TestLocalizeIndoorSelectsStoreFix(t *testing.T) {
	_, w, c := worldFixture(t)
	store := w.Stores[0]
	rng := rand.New(rand.NewSource(42))
	truthLocal := geo.Point{X: 5, Y: 12}
	cue := loc.SynthesizeRSSICue(truthLocal, store.Beacons, loc.DefaultRadioModel(), rng)

	// Coarse position from (bad) indoor GPS; prior is the same reading.
	gps := loc.DefaultGPSModel()
	entrance := trueEntrance(store)
	gpsCue, ok := gps.Sample(entrance, true, rng)
	if !ok {
		t.Fatal("gps denied")
	}
	fix, ok := c.LocalizeV2(context.Background(), *gpsCue.GPS, []loc.Cue{cue}, *gpsCue.GPS, gps.IndoorSigmaMeters)
	if !ok {
		t.Fatal("no fix")
	}
	if fix.Technology != loc.TechWiFiRSSI {
		t.Fatalf("fix technology = %v", fix.Technology)
	}
	if d := fix.Local.Dist(truthLocal); d > 8 {
		t.Fatalf("fix error %v m", d)
	}
}

func TestLocalizeNoServers(t *testing.T) {
	_, _, c := worldFixture(t)
	far := geo.LatLng{Lat: 41, Lng: -78}
	if _, ok := c.LocalizeV2(context.Background(), far, []loc.Cue{{Technology: loc.TechWiFiRSSI,
		RSSI: map[string]float64{"x": -50}}}, far, 10); ok {
		t.Fatal("localized with no servers")
	}
}

func TestRouteOutdoorOnly(t *testing.T) {
	_, _, c := worldFixture(t)
	from := geo.LatLng{Lat: 40.4400, Lng: -79.9990}
	to := geo.Offset(geo.Offset(from, 400, 0), 400, 90)
	route, err := c.RouteV2(context.Background(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	if route.ServersUsed != 1 {
		t.Fatalf("outdoor route used %d servers", route.ServersUsed)
	}
	if route.LengthMeters < 700 || route.LengthMeters > 1000 {
		t.Fatalf("length = %v m, want ~800 (manhattan)", route.LengthMeters)
	}
}

func TestRouteStreetToShelf(t *testing.T) {
	// The §2 scenario: navigate from a street corner to a specific shelf
	// inside a store; the route must cross the portal and use both maps.
	_, w, c := worldFixture(t)
	store := w.Stores[0]
	product := store.Products[len(store.Products)-1]
	shelf, err := c.GeocodeV2(context.Background(), product+" shelf, "+store.Map.Name)
	if err != nil {
		t.Fatal(err)
	}
	from := geo.LatLng{Lat: 40.4400, Lng: -79.9990} // far city corner
	route, err := c.RouteV2(context.Background(), from, shelf.Position)
	if err != nil {
		t.Fatal(err)
	}
	if route.ServersUsed < 2 {
		t.Fatalf("street-to-shelf route used %d servers; want outdoor+indoor", route.ServersUsed)
	}
	// The final leg is served by the store.
	last := route.Legs[len(route.Legs)-1]
	if last.Server == "world-map" {
		t.Fatalf("final leg served by %s", last.Server)
	}
	// Route passes near the entrance portal.
	entrance := trueEntrance(store)
	nearPortal := false
	for _, p := range route.Points() {
		if geo.DistanceMeters(p.Position, entrance) < 10 {
			nearPortal = true
			break
		}
	}
	if !nearPortal {
		t.Fatal("stitched route does not pass the entrance portal")
	}
	if route.CostSeconds <= 0 || route.LengthMeters <= 0 {
		t.Fatalf("route stats: %+v", route)
	}
}

func TestRouteNoServers(t *testing.T) {
	_, _, c := worldFixture(t)
	far := geo.LatLng{Lat: 10, Lng: 10}
	if _, err := c.RouteV2(context.Background(), far, geo.Offset(far, 100, 0)); err == nil {
		t.Fatal("route with no servers succeeded")
	}
}

func TestTileFetchAndRequestCount(t *testing.T) {
	f, w, c := worldFixture(t)
	store := w.Stores[0]
	entrance := trueEntrance(store)
	anns := c.DiscoverV2(context.Background(), entrance)
	if len(anns) == 0 {
		t.Fatal("nothing discovered")
	}
	before := c.RequestCount()
	png, err := c.TilePNGV2(context.Background(), anns[0].URL, 17, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(png) == 0 {
		t.Fatal("empty tile")
	}
	if c.RequestCount() != before+1 {
		t.Fatalf("request count %d -> %d", before, c.RequestCount())
	}
	_ = f
}

func TestIdentityHeadersForwarded(t *testing.T) {
	// Lock a store's search behind a user domain and confirm the client's
	// identity opens it.
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	f, err := core.DeployWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// DeployWorld has no auth; the mapserver policy tests
	// (TestAuthPolicyLevels) cover enforcement. Here we only verify headers
	// are attached (no panic path).
	c := f.NewClient()
	c.User = "alice@cmu.edu"
	c.App = "campus-nav"
	store := w.Stores[0]
	if got := c.SearchV2(context.Background(), store.Products[0], trueEntrance(store), 5); len(got) == 0 {
		t.Fatal("authenticated search failed")
	}
}

func TestSelectBestWorld(t *testing.T) {
	center := geo.LatLng{Lat: 40.44, Lng: -79.99}
	good := loc.Fix{World: center, Confidence: 0.6, SigmaMeters: 3, Source: "right"}
	outlier := loc.Fix{World: geo.Offset(center, 900, 90), Confidence: 0.95, SigmaMeters: 3, Source: "wrong"}
	got, ok := client.SelectBestWorld([]loc.Fix{outlier, good}, center, 10)
	if !ok || got.Source != "right" {
		t.Fatalf("SelectBestWorld = %+v", got)
	}
	got, _ = client.SelectBestWorld([]loc.Fix{outlier, good}, center, 0)
	if got.Source != "wrong" {
		t.Fatalf("no-prior pick = %+v", got)
	}
	if _, ok := client.SelectBestWorld(nil, center, 1); ok {
		t.Fatal("empty fixes selected")
	}
}

func TestLocalizeVisualCue(t *testing.T) {
	// Image-landmark localization (§5.2 lists images among location cues)
	// end to end through the federation.
	_, w, c := worldFixture(t)
	store := w.Stores[0]
	rng := rand.New(rand.NewSource(77))
	truth := geo.Point{X: -6, Y: 14}
	cue := loc.SynthesizeVisualCue(truth, store.Landmarks, 100, 0.05, rng)
	entrance := trueEntrance(store)
	fix, ok := c.LocalizeV2(context.Background(), entrance, []loc.Cue{cue}, entrance, 35)
	if !ok {
		t.Fatal("no visual fix")
	}
	if fix.Technology != loc.TechVisual {
		t.Fatalf("technology = %v", fix.Technology)
	}
	if d := fix.Local.Dist(truth); d > 4 {
		t.Fatalf("visual fix error %v m", d)
	}
}

func TestLocalizeMultiCueFusion(t *testing.T) {
	// The client sends every cue it has; the best-scoring fix wins.
	_, w, c := worldFixture(t)
	store := w.Stores[0]
	rng := rand.New(rand.NewSource(78))
	truth := geo.Point{X: 8, Y: 6}
	cues := []loc.Cue{
		loc.SynthesizeRSSICue(truth, store.Beacons, loc.DefaultRadioModel(), rng),
		loc.SynthesizeVisualCue(truth, store.Landmarks, 100, 0.03, rng),
	}
	entrance := trueEntrance(store)
	fix, ok := c.LocalizeV2(context.Background(), entrance, cues, entrance, 35)
	if !ok {
		t.Fatal("no fix")
	}
	if d := fix.Local.Dist(truth); d > 5 {
		t.Fatalf("fused fix error %v m (via %v)", d, fix.Technology)
	}
}

// TestClientSurface pins the client's exported configuration: resilience
// is configured one way, through Client.Resilience.
func TestClientSurface(t *testing.T) {
	typ := reflect.TypeOf(client.Client{})
	n := 0
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).IsExported() {
			n++
		}
	}
	if n != 7 {
		t.Fatalf("client.Client has %d exported fields, want 7", n)
	}
}

// TestInfoFailureNotCached: a server whose /info fails once must surface the
// failure and be asked again, never be remembered as an empty description.
func TestInfoFailureNotCached(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if hits.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":"warming up"}`))
			return
		}
		_ = json.NewEncoder(w).Encode(wire.Info{Name: "city"})
	}))
	defer ts.Close()
	c := client.New(nil, ts.Client())
	_, err := c.InfoV2(context.Background(), ts.URL)
	var he *resilience.HTTPError
	if !errors.As(err, &he) || he.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("first InfoV2 error = %v, want a 503 *resilience.HTTPError", err)
	}
	info, err := c.InfoV2(context.Background(), ts.URL)
	if err != nil || info.Name != "city" {
		t.Fatalf("second InfoV2 = %+v, %v; want the real Info", info, err)
	}
	if _, err := c.InfoV2(context.Background(), ts.URL); err != nil {
		t.Fatal(err)
	}
	if n := hits.Load(); n != 2 {
		t.Fatalf("server hit %d times, want 2 (the 200 is cached)", n)
	}
}
