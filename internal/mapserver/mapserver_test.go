package mapserver

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"openflame/internal/align"
	"openflame/internal/geo"
	"openflame/internal/loc"
	"openflame/internal/osm"
	"openflame/internal/s2cell"
	"openflame/internal/tiles"
	"openflame/internal/wire"
	"openflame/internal/worldgen"
)

// storeServer builds a map server for a generated grocery store with
// precise alignment fitted from its survey correspondences.
func storeServer(t testing.TB, auth *Policy) (*Server, *worldgen.IndoorBundle) {
	t.Helper()
	entrance := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	bundle := worldgen.GenStore(worldgen.DefaultStoreParams("Corner Grocery", entrance))
	ga, err := align.FitGeo(bundle.Correspondences)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Name:      "corner-grocery",
		Map:       bundle.Map,
		Alignment: ga,
		Beacons:   bundle.Beacons,
		Fiducials: bundle.Fiducials,
		Auth:      auth,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, bundle
}

// cityMap is the default outdoor city with no stores.
func cityMap() *osm.Map {
	return worldgen.GenWorld(worldgen.WorldParams{City: worldgen.DefaultCityParams()}).Outdoor
}

func cityServer(t testing.TB) *Server {
	t.Helper()
	city := cityMap()
	srv, err := New(Config{Name: "city", Map: city, UseCH: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitCH(context.Background()); err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestInfo(t *testing.T) {
	srv, bundle := storeServer(t, nil)
	info := srv.Info()
	if info.Name != "corner-grocery" {
		t.Fatalf("name = %q", info.Name)
	}
	if len(info.Coverage) == 0 {
		t.Fatal("no coverage cells")
	}
	if info.FrameKind != "local" {
		t.Fatalf("frame = %q", info.FrameKind)
	}
	var techs []string
	for _, tech := range info.Technologies {
		techs = append(techs, string(tech))
	}
	joined := strings.Join(techs, ",")
	if !strings.Contains(joined, "wifi-rssi") || !strings.Contains(joined, "fiducial") {
		t.Fatalf("technologies = %v", techs)
	}
	if len(info.Portals) != 1 || info.Portals[0].ID != bundle.PortalID {
		t.Fatalf("portals = %v", info.Portals)
	}
	// The portal's advertised world position is alignment-corrected: near
	// the true entrance.
	trueEntrance := bundle.Correspondences[len(bundle.Correspondences)-1].World
	if d := geo.DistanceMeters(info.Portals[0].World, trueEntrance); d > 1 {
		t.Fatalf("portal world position off by %v m", d)
	}
}

func TestSearchFindsInventory(t *testing.T) {
	srv, bundle := storeServer(t, nil)
	product := bundle.Products[0]
	resp := srv.Search(wire.SearchRequest{Query: product})
	if len(resp.Results) == 0 {
		t.Fatalf("product %q not found", product)
	}
	top := resp.Results[0]
	if !strings.Contains(top.Name, product) {
		t.Fatalf("top = %+v", top)
	}
	if top.Source != "corner-grocery" {
		t.Fatalf("source = %q", top.Source)
	}
}

func TestGeocodeAndRGeocode(t *testing.T) {
	srv := cityServer(t)
	g := srv.Geocode(wire.GeocodeRequest{Query: "3rd Street", Limit: 5})
	if len(g.Results) == 0 {
		t.Fatal("street not geocoded")
	}
	pos := g.Results[0].Position
	rg := srv.RGeocode(wire.RGeocodeRequest{Position: pos, MaxMeters: 200})
	if !rg.Found {
		t.Fatal("reverse geocode found nothing")
	}
}

func TestRouteWithinStore(t *testing.T) {
	srv, bundle := storeServer(t, nil)
	// From the entrance to a shelf at the back: snap both via positions.
	entranceWorld := bundle.Correspondences[len(bundle.Correspondences)-1].World
	shelf := bundle.Map.FindNodes(func(n *osm.Node) bool {
		return n.Tags.Get(osm.TagProduct) == bundle.Products[len(bundle.Products)-1]
	})[0]
	shelfWorld := srv.worldPos(shelf)
	resp := srv.Route(wire.RouteRequest{From: entranceWorld, To: shelfWorld})
	if !resp.Found {
		t.Fatal("no route")
	}
	if len(resp.Points) < 3 {
		t.Fatalf("route too short: %d points", len(resp.Points))
	}
	if resp.CostSeconds <= 0 || resp.LengthMeters <= 0 {
		t.Fatalf("route stats: %+v", resp)
	}
	// Walking ~entrance→back should be tens of meters, not hundreds.
	if resp.LengthMeters > 200 {
		t.Fatalf("length = %v m", resp.LengthMeters)
	}
}

func TestRouteByNodeIDs(t *testing.T) {
	srv, bundle := storeServer(t, nil)
	ids := srv.Graph().NodeIDs()
	resp := srv.Route(wire.RouteRequest{FromNode: int64(bundle.EntranceNode), ToNode: ids[len(ids)-1]})
	if !resp.Found {
		t.Fatal("no route by node IDs")
	}
}

func TestRouteUnroutable(t *testing.T) {
	srv, _ := storeServer(t, nil)
	resp := srv.Route(wire.RouteRequest{
		From: geo.LatLng{Lat: 10, Lng: 10}, To: geo.LatLng{Lat: 11, Lng: 11}})
	if resp.Found {
		t.Fatal("routed outside the map")
	}
}

func TestRouteMatrix(t *testing.T) {
	srv, bundle := storeServer(t, nil)
	ids := srv.Graph().NodeIDs()
	req := wire.RouteMatrixRequest{
		FromNodes: []int64{int64(bundle.EntranceNode)},
		ToNodes:   []int64{ids[0], ids[len(ids)-1], 999999},
	}
	resp := srv.RouteMatrix(req)
	if len(resp.CostSeconds) != 1 || len(resp.CostSeconds[0]) != 3 {
		t.Fatalf("matrix shape: %v", resp.CostSeconds)
	}
	if resp.CostSeconds[0][2] != -1 {
		t.Fatal("unknown node should be unreachable")
	}
}

func TestLocalizeRSSI(t *testing.T) {
	srv, bundle := storeServer(t, nil)
	rng := rand.New(rand.NewSource(1))
	truth := geo.Point{X: 5, Y: 10}
	cue := loc.SynthesizeRSSICue(truth, bundle.Beacons, loc.DefaultRadioModel(), rng)
	resp := srv.Localize(wire.LocalizeRequest{Cue: cue})
	if !resp.Found {
		t.Fatal("no fix")
	}
	if d := resp.Fix.Local.Dist(truth); d > 8 {
		t.Fatalf("fix error %v m", d)
	}
	if resp.Fix.Source != "corner-grocery" {
		t.Fatalf("source = %q", resp.Fix.Source)
	}
	// World position is alignment-corrected and therefore close to the
	// true world location of the truth point.
	ga, _ := align.FitGeo(bundle.Correspondences)
	trueWorld := ga.ToWorld(truth)
	if d := geo.DistanceMeters(resp.Fix.World, trueWorld); d > 10 {
		t.Fatalf("world fix error %v m", d)
	}
}

func TestLocalizeFiducial(t *testing.T) {
	srv, bundle := storeServer(t, nil)
	resp := srv.Localize(wire.LocalizeRequest{Cue: loc.Cue{
		Technology: loc.TechFiducial, TagID: bundle.Fiducials[0].ID}})
	if !resp.Found {
		t.Fatal("no fiducial fix")
	}
	if resp.Fix.Confidence < 0.9 {
		t.Fatalf("confidence = %v", resp.Fix.Confidence)
	}
}

func TestLocalizeUnsupported(t *testing.T) {
	city := cityServer(t) // no beacons, no fiducials
	resp := city.Localize(wire.LocalizeRequest{Cue: loc.Cue{
		Technology: loc.TechWiFiRSSI, RSSI: map[string]float64{"x": -50}}})
	if resp.Found {
		t.Fatal("city server localized an RSSI cue")
	}
}

func TestTileEndToEnd(t *testing.T) {
	srv := cityServer(t)
	c := tiles.FromLatLng(geo.LatLng{Lat: 40.4420, Lng: -79.9960}, 16)
	png, err := srv.Tile(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(png, []byte("\x89PNG")) {
		t.Fatal("not a PNG")
	}
	if _, err := srv.Tile(tiles.Coord{Z: 99, X: 0, Y: 0}); err == nil {
		t.Fatal("absurd zoom accepted")
	}
}

func TestApplyInventoryUpdate(t *testing.T) {
	srv, bundle := storeServer(t, nil)
	shelf := bundle.Map.FindNodes(func(n *osm.Node) bool {
		return n.Tags.Get(osm.TagProduct) == bundle.Products[0]
	})[0]
	ok := srv.ApplyInventoryUpdate(shelf.ID, osm.Tags{
		osm.TagName: "matcha shelf", osm.TagProduct: "matcha powder", osm.TagIndoor: "yes"})
	if !ok {
		t.Fatal("update failed")
	}
	if got := srv.Search(wire.SearchRequest{Query: "matcha"}); len(got.Results) == 0 {
		t.Fatal("updated product not searchable")
	}
	if got := srv.Search(wire.SearchRequest{Query: bundle.Products[0], Limit: 50}); len(got.Results) != 0 {
		// products repeat across aisles; ensure this exact shelf is gone
		for _, r := range got.Results {
			if r.NodeID == shelf.ID {
				t.Fatal("stale shelf still indexed")
			}
		}
	}
}

// --- HTTP layer ---

func postJSON(t *testing.T, client *http.Client, url string, req, resp interface{}, headers map[string]string) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpReq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		httpReq.Header.Set(k, v)
	}
	res, err := client.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode == http.StatusOK && resp != nil {
		if err := json.NewDecoder(res.Body).Decode(resp); err != nil {
			t.Fatal(err)
		}
	}
	return res.StatusCode
}

func TestHTTPEndpoints(t *testing.T) {
	srv, bundle := storeServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// /info
	res, err := http.Get(ts.URL + "/info")
	if err != nil {
		t.Fatal(err)
	}
	var info wire.Info
	if err := json.NewDecoder(res.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if info.Name != "corner-grocery" {
		t.Fatalf("info = %+v", info)
	}

	// /search
	var sr wire.SearchResponse
	code := postJSON(t, ts.Client(), ts.URL+"/search",
		wire.SearchRequest{Query: bundle.Products[0]}, &sr, nil)
	if code != http.StatusOK || len(sr.Results) == 0 {
		t.Fatalf("search: code %d results %d", code, len(sr.Results))
	}

	// /route
	var rr wire.RouteResponse
	entrance := bundle.Correspondences[len(bundle.Correspondences)-1].World
	code = postJSON(t, ts.Client(), ts.URL+"/route",
		wire.RouteRequest{From: entrance, To: sr.Results[0].Position}, &rr, nil)
	if code != http.StatusOK || !rr.Found {
		t.Fatalf("route: code %d found %v", code, rr.Found)
	}

	// /tiles
	res, err = http.Get(ts.URL + "/tiles/17/0/0.png")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("tile status %d", res.StatusCode)
	}
	res, err = http.Get(ts.URL + "/tiles/bogus")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad tile path status %d", res.StatusCode)
	}

	// GET on a POST endpoint.
	res, err = http.Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET search status %d", res.StatusCode)
	}
}

func TestAuthPolicyLevels(t *testing.T) {
	// §5.3: tiles public; localization only for cmu.edu users via the
	// campus-nav app; everything else default-deny.
	policy := &Policy{
		Default: Rule{},
		PerService: map[wire.Service]Rule{
			wire.SvcTiles:    {Public: true},
			wire.SvcLocalize: {UserDomains: []string{"cmu.edu"}, Apps: []string{"campus-nav"}},
			wire.SvcSearch:   {UserDomains: []string{"cmu.edu"}},
		},
	}
	srv, bundle := storeServer(t, policy)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Tiles: anonymous OK.
	res, err := http.Get(ts.URL + "/tiles/17/0/0.png")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("public tiles denied: %d", res.StatusCode)
	}

	// Search: denied anonymously, allowed for cmu.edu.
	code := postJSON(t, ts.Client(), ts.URL+"/search", wire.SearchRequest{Query: "x"}, nil, nil)
	if code != http.StatusForbidden {
		t.Fatalf("anonymous search code %d", code)
	}
	code = postJSON(t, ts.Client(), ts.URL+"/search", wire.SearchRequest{Query: "x"}, nil,
		map[string]string{HeaderUser: "alice@cmu.edu"})
	if code != http.StatusOK {
		t.Fatalf("cmu search code %d", code)
	}
	code = postJSON(t, ts.Client(), ts.URL+"/search", wire.SearchRequest{Query: "x"}, nil,
		map[string]string{HeaderUser: "bob@evil.com"})
	if code != http.StatusForbidden {
		t.Fatalf("evil search code %d", code)
	}

	// Localize: needs both user domain and app.
	cue := loc.Cue{Technology: loc.TechFiducial, TagID: bundle.Fiducials[0].ID}
	code = postJSON(t, ts.Client(), ts.URL+"/localize", wire.LocalizeRequest{Cue: cue}, nil,
		map[string]string{HeaderUser: "alice@cmu.edu"})
	if code != http.StatusForbidden {
		t.Fatalf("localize without app code %d", code)
	}
	code = postJSON(t, ts.Client(), ts.URL+"/localize", wire.LocalizeRequest{Cue: cue}, nil,
		map[string]string{HeaderUser: "alice@cmu.edu", HeaderApp: "campus-nav"})
	if code != http.StatusOK {
		t.Fatalf("full-identity localize code %d", code)
	}

	// Route: default-deny.
	code = postJSON(t, ts.Client(), ts.URL+"/route", wire.RouteRequest{}, nil,
		map[string]string{HeaderUser: "alice@cmu.edu", HeaderApp: "campus-nav"})
	if code != http.StatusForbidden {
		t.Fatalf("default-deny route code %d", code)
	}
}

func TestRuleAllows(t *testing.T) {
	if !(Rule{Public: true}).Allows("", "") {
		t.Fatal("public rule denied")
	}
	if (Rule{}).Allows("a@b.c", "app") {
		t.Fatal("empty rule allowed")
	}
	r := Rule{UserDomains: []string{"CMU.edu"}}
	if !r.Allows("x@cmu.EDU", "") {
		t.Fatal("case-insensitive domain failed")
	}
	if r.Allows("not-an-email", "") {
		t.Fatal("malformed identity allowed")
	}
	if (&Policy{}).Allow(wire.SvcSearch, "a@b.c", "") {
		t.Fatal("zero policy allowed")
	}
	var nilPolicy *Policy
	if !nilPolicy.Allow(wire.SvcSearch, "", "") {
		t.Fatal("nil policy should allow")
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil map accepted")
	}
}

func TestCoverageContainsStore(t *testing.T) {
	srv, bundle := storeServer(t, nil)
	// The coverage cells must contain the entrance's cell at max level.
	entrance := bundle.Correspondences[len(bundle.Correspondences)-1].World
	var found bool
	for _, tok := range srv.Info().Coverage {
		// tokens round trip
		if tok == "" {
			t.Fatal("empty coverage token")
		}
	}
	leaf := s2cell.FromLatLng(entrance)
	for _, c := range srv.Coverage() {
		if c.Contains(leaf) {
			found = true
		}
	}
	if !found {
		t.Fatal("coverage misses the entrance")
	}
}

func BenchmarkServerSearch(b *testing.B) {
	srv, bundle := storeServer(b, nil)
	req := wire.SearchRequest{Query: bundle.Products[0]}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if resp := srv.Search(req); len(resp.Results) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkServerRoute(b *testing.B) {
	srv, bundle := storeServer(b, nil)
	ids := srv.Graph().NodeIDs()
	req := wire.RouteRequest{FromNode: int64(bundle.EntranceNode), ToNode: ids[len(ids)-1]}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if resp := srv.Route(req); !resp.Found {
			b.Fatal("no route")
		}
	}
}

func TestRouteMetricDistance(t *testing.T) {
	// On a map where the fast path is longer than the short path, the
	// distance metric picks the short one. Build it directly: A—B direct
	// (slow aisle, 20m) vs A—C—B detour (fast corridors, 30m total).
	mb := osm.NewBuilder("metric", osm.Frame{Kind: osm.FrameGeodetic})
	origin := geo.LatLng{Lat: 40.44, Lng: -79.99}
	a := mb.AddNode(&osm.Node{Pos: origin})
	b := mb.AddNode(&osm.Node{Pos: geo.Offset(origin, 20, 90)})
	// Detour legs: 2x sqrt(10^2+5^2) ~= 22.4m at 1.4 m/s ~= 16s, beating
	// the direct 20m aisle at 1.1 m/s ~= 18.2s — faster but longer.
	c := mb.AddNode(&osm.Node{Pos: geo.Offset(geo.Offset(origin, 10, 90), 5, 0)})
	mustWay := func(ids []osm.NodeID, tags osm.Tags) {
		t.Helper()
		if _, err := mb.AddWay(&osm.Way{NodeIDs: ids, Tags: tags}); err != nil {
			t.Fatal(err)
		}
	}
	// Direct way is an "aisle" (1.1 m/s); detour ways are default (1.4 m/s).
	mustWay([]osm.NodeID{a, b}, osm.Tags{osm.TagHighway: "aisle", osm.TagIndoor: "yes"})
	mustWay([]osm.NodeID{a, c}, osm.Tags{osm.TagHighway: "footway"})
	mustWay([]osm.NodeID{c, b}, osm.Tags{osm.TagHighway: "footway"})
	srv, err := New(Config{Name: "metric", Map: mb.Build()})
	if err != nil {
		t.Fatal(err)
	}
	timeRoute := srv.Route(wire.RouteRequest{FromNode: int64(a), ToNode: int64(b)})
	distRoute := srv.Route(wire.RouteRequest{FromNode: int64(a), ToNode: int64(b),
		Metric: wire.MetricDistance})
	if !timeRoute.Found || !distRoute.Found {
		t.Fatal("missing routes")
	}
	// Time metric prefers the faster detour; distance metric the direct way.
	if len(timeRoute.Points) != 3 {
		t.Fatalf("time route points = %d, want detour via c", len(timeRoute.Points))
	}
	if len(distRoute.Points) != 2 {
		t.Fatalf("distance route points = %d, want direct", len(distRoute.Points))
	}
	if distRoute.LengthMeters >= timeRoute.LengthMeters {
		t.Fatalf("distance route longer: %v vs %v", distRoute.LengthMeters, timeRoute.LengthMeters)
	}
}

// twinServers builds two servers over the same city map — one preprocessed
// with contraction hierarchies (waited for), one serving plain bidirectional
// Dijkstra — so tests can assert the two answer identically.
func twinServers(t testing.TB) (ch, plain *Server) {
	t.Helper()
	city := cityMap()
	var err error
	ch, err = New(Config{Name: "city-ch", Map: city, UseCH: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.WaitCH(context.Background()); err != nil {
		t.Fatal(err)
	}
	plain, err = New(Config{Name: "city-plain", Map: city})
	if err != nil {
		t.Fatal(err)
	}
	return ch, plain
}

func TestWaitCHAndCHActive(t *testing.T) {
	ch, plain := twinServers(t)
	if !ch.CHActive() {
		t.Fatal("hierarchy not active after WaitCH")
	}
	if plain.CHActive() {
		t.Fatal("hierarchy active without UseCH")
	}
	// WaitCH on a no-CH server resolves immediately.
	if err := plain.WaitCH(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A cancelled context is reported when the build can never be awaited.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	blocked := &Server{chReady: make(chan struct{})} // never closes
	if err := blocked.WaitCH(ctx); err == nil {
		t.Fatal("WaitCH ignored context cancellation")
	}
}

// closeEnough absorbs last-ulp float drift: CH sums the same edge weights
// as Dijkstra but in a different association order.
func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+a+b)
}

// TestRouteParityCHvsFallback pins the tentpole guarantee: enabling the
// hierarchy changes route latency, never route answers — for the time
// metric AND the distance metric (which routes on the second hierarchy).
func TestRouteParityCHvsFallback(t *testing.T) {
	ch, plain := twinServers(t)
	ids := ch.Graph().NodeIDs()
	rng := rand.New(rand.NewSource(99))
	for _, metric := range []wire.RouteMetric{wire.MetricTime, wire.MetricDistance} {
		for trial := 0; trial < 40; trial++ {
			req := wire.RouteRequest{
				FromNode: ids[rng.Intn(len(ids))],
				ToNode:   ids[rng.Intn(len(ids))],
				Metric:   metric,
			}
			a, b := ch.Route(req), plain.Route(req)
			if a.Found != b.Found {
				t.Fatalf("metric=%s %d->%d: found %v vs %v", metric, req.FromNode, req.ToNode, a.Found, b.Found)
			}
			if !a.Found {
				continue
			}
			if !closeEnough(a.CostSeconds, b.CostSeconds) {
				t.Fatalf("metric=%s %d->%d: cost %v vs %v", metric, req.FromNode, req.ToNode, a.CostSeconds, b.CostSeconds)
			}
			if !closeEnough(a.LengthMeters, b.LengthMeters) {
				t.Fatalf("metric=%s %d->%d: length %v vs %v", metric, req.FromNode, req.ToNode, a.LengthMeters, b.LengthMeters)
			}
		}
	}
}

// TestRouteMatrixParityCHvsFallback drives the bucket-based many-to-many
// path against the truncated-Dijkstra fallback, including the wire
// conventions both must honor: unresolvable endpoints (-1), identical
// endpoints (0), unknown node IDs (-1).
func TestRouteMatrixParityCHvsFallback(t *testing.T) {
	ch, plain := twinServers(t)
	ids := ch.Graph().NodeIDs()
	rng := rand.New(rand.NewSource(7))
	pick := func(k int) []int64 {
		out := make([]int64, k)
		for i := range out {
			out[i] = ids[rng.Intn(len(ids))]
		}
		return out
	}
	req := wire.RouteMatrixRequest{FromNodes: pick(9), ToNodes: pick(11)}
	req.ToNodes[3] = req.FromNodes[2] // identical pair → 0
	req.ToNodes[5] = 1 << 40          // unknown ID → -1
	req.ToNodes[7] = req.ToNodes[6]   // repeated column
	a, b := ch.RouteMatrix(req), plain.RouteMatrix(req)
	if len(a.CostSeconds) != len(req.FromNodes) || len(b.CostSeconds) != len(req.FromNodes) {
		t.Fatalf("matrix rows: %d vs %d", len(a.CostSeconds), len(b.CostSeconds))
	}
	for i := range a.CostSeconds {
		for j := range a.CostSeconds[i] {
			if !closeEnough(a.CostSeconds[i][j], b.CostSeconds[i][j]) {
				t.Fatalf("cell (%d,%d): %v vs %v", i, j, a.CostSeconds[i][j], b.CostSeconds[i][j])
			}
		}
	}
	for i := range a.CostSeconds {
		if got := a.CostSeconds[i][5]; got != -1 {
			t.Fatalf("unknown ID cell = %v, want -1", got)
		}
	}
	if got := a.CostSeconds[2][3]; got != 0 {
		t.Fatalf("identical pair cell = %v, want 0", got)
	}
}

// TestConfigSurface pins the size of the server's configuration: a field is
// a second path somebody has to test, so adding one should be a deliberate
// act. Values no caller varies are constants, not fields.
func TestConfigSurface(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	n := 0
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).IsExported() {
			n++
		}
	}
	if n != 12 {
		t.Fatalf("mapserver.Config has %d exported fields, want 12", n)
	}
}
