// Experiment harness: one benchmark per experiment in DESIGN.md §4
// (E1–E12). The paper (HotOS'25) has two architecture figures and no
// quantitative tables; each benchmark here turns one of its architectural
// claims into a measurement against the deterministic synthetic world.
// EXPERIMENTS.md records representative outputs and the expected shapes.
package openflame

import (
	"context"
	"fmt"
	"image/color"
	"math/rand"
	"sync"
	"testing"

	"openflame/internal/align"
	"openflame/internal/centralized"
	"openflame/internal/client"
	"openflame/internal/core"
	"openflame/internal/discovery"
	"openflame/internal/geo"
	"openflame/internal/graph"
	"openflame/internal/loc"
	"openflame/internal/mapserver"
	"openflame/internal/osm"
	"openflame/internal/raster"
	"openflame/internal/s2cell"
	"openflame/internal/tiles"
	"openflame/internal/wire"
	"openflame/internal/worldgen"
)

// --- shared fixtures (built once; benches must not mutate them) ---------

type fixtures struct {
	world   *worldgen.World
	fed     *core.Federation
	central *centralized.System
}

var (
	fxOnce sync.Once
	fx     *fixtures
)

func getFixtures(b *testing.B) *fixtures {
	b.Helper()
	fxOnce.Do(func() {
		world := worldgen.GenWorld(worldgen.DefaultWorldParams())
		fed, err := core.DeployWorld(world)
		if err != nil {
			panic(err)
		}
		sources := []centralized.Source{{Map: world.Outdoor}}
		for _, s := range world.Stores {
			ga, err := align.FitGeo(s.Correspondences)
			if err != nil {
				panic(err)
			}
			sources = append(sources, centralized.Source{Map: s.Map, Alignment: ga})
		}
		central, err := centralized.Build(sources, nil)
		if err != nil {
			panic(err)
		}
		fx = &fixtures{world: world, fed: fed, central: central}
	})
	return fx
}

func storeEntrance(s *worldgen.IndoorBundle) geo.LatLng {
	return s.Correspondences[len(s.Correspondences)-1].World
}

var cityCorner = geo.LatLng{Lat: 40.4400, Lng: -79.9990}

// warmClient returns a client with discovery and info caches primed for the
// store-0 scenario.
func warmClient(b *testing.B, f *fixtures) *client.Client {
	b.Helper()
	c := f.fed.NewClient()
	entrance := storeEntrance(f.world.Stores[0])
	c.DiscoverV2(context.Background(), entrance)
	c.SearchV2(context.Background(), f.world.Stores[0].Products[0], entrance, 5)
	return c
}

// ========================= E1: centralized baseline ======================
// Figure 1: every service answered from one preprocessed global database.

func BenchmarkE1_CentralizedGeocode(b *testing.B) {
	f := getFixtures(b)
	req := wire.GeocodeRequest{Query: "3rd Street", Limit: 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if resp := f.central.Geocode(req); len(resp.Results) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkE1_CentralizedRGeocode(b *testing.B) {
	f := getFixtures(b)
	req := wire.RGeocodeRequest{Position: storeEntrance(f.world.Stores[0]), MaxMeters: 200}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if resp := f.central.RGeocode(req); !resp.Found {
			b.Fatal("not found")
		}
	}
}

func BenchmarkE1_CentralizedSearch(b *testing.B) {
	f := getFixtures(b)
	near := storeEntrance(f.world.Stores[0])
	req := wire.SearchRequest{Query: f.world.Stores[0].Products[0], Near: &near, Limit: 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if resp := f.central.Search(req); len(resp.Results) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkE1_CentralizedRoute(b *testing.B) {
	f := getFixtures(b)
	req := wire.RouteRequest{From: cityCorner, To: storeEntrance(f.world.Stores[0])}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if resp := f.central.Route(req); !resp.Found {
			b.Fatal("no route")
		}
	}
}

func BenchmarkE1_CentralizedTile(b *testing.B) {
	f := getFixtures(b)
	coord := tiles.FromLatLng(storeEntrance(f.world.Stores[0]), 16)
	if _, err := f.central.Tile(coord); err != nil { // prime the pre-render cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.central.Tile(coord); err != nil {
			b.Fatal(err)
		}
	}
}

// ===================== E2: federated end-to-end ==========================
// Figure 2: discovery + per-server HTTP round trips + client assembly.

func BenchmarkE2_FederatedSearch(b *testing.B) {
	f := getFixtures(b)
	c := warmClient(b, f)
	near := storeEntrance(f.world.Stores[0])
	query := f.world.Stores[0].Products[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := c.SearchV2(context.Background(), query, near, 10); len(got) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkE2_FederatedGeocode(b *testing.B) {
	f := getFixtures(b)
	c := warmClient(b, f)
	address := f.world.Stores[0].Products[0] + " shelf, " + f.world.Stores[0].Map.Name
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.GeocodeV2(context.Background(), address); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_FederatedRoute(b *testing.B) {
	f := getFixtures(b)
	c := warmClient(b, f)
	to := storeEntrance(f.world.Stores[0])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.RouteV2(context.Background(), cityCorner, to); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_FederatedLocalize(b *testing.B) {
	f := getFixtures(b)
	c := warmClient(b, f)
	store := f.world.Stores[0]
	rng := rand.New(rand.NewSource(1))
	truth := geo.Point{X: 5, Y: 10}
	cue := loc.SynthesizeRSSICue(truth, store.Beacons, loc.DefaultRadioModel(), rng)
	coarse := storeEntrance(store)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := c.LocalizeV2(context.Background(), coarse, []loc.Cue{cue}, coarse, 35); !ok {
			b.Fatal("no fix")
		}
	}
}

func BenchmarkE2_FederatedTile(b *testing.B) {
	f := getFixtures(b)
	c := warmClient(b, f)
	entrance := storeEntrance(f.world.Stores[0])
	anns := c.DiscoverV2(context.Background(), entrance)
	if len(anns) == 0 {
		b.Fatal("nothing discovered")
	}
	coord := tiles.FromLatLng(entrance, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.TilePNGV2(context.Background(), anns[0].URL, coord.Z, coord.X, coord.Y); err != nil {
			b.Fatal(err)
		}
	}
}

// ================= E3: DNS discovery, cold vs cached =====================
// §5.1: "the system would benefit from a ubiquitous caching mechanism."

func BenchmarkE3_DiscoveryCold(b *testing.B) {
	f := getFixtures(b)
	entrance := storeEntrance(f.world.Stores[0])
	res := f.fed.NewResolver()
	disc := discovery.NewClient(res, discovery.DefaultSuffix)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res.FlushCache()
		if got := disc.Discover(entrance); len(got) == 0 {
			b.Fatal("nothing discovered")
		}
	}
	st := res.Stats()
	b.ReportMetric(float64(st.UpstreamQueries)/float64(b.N), "dnsqueries/op")
}

func BenchmarkE3_DiscoveryWarm(b *testing.B) {
	f := getFixtures(b)
	entrance := storeEntrance(f.world.Stores[0])
	res := f.fed.NewResolver()
	disc := discovery.NewClient(res, discovery.DefaultSuffix)
	disc.Discover(entrance)
	st0 := res.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := disc.Discover(entrance); len(got) == 0 {
			b.Fatal("nothing discovered")
		}
	}
	st := res.Stats()
	b.ReportMetric(float64(st.UpstreamQueries-st0.UpstreamQueries)/float64(b.N), "dnsqueries/op")
}

func BenchmarkE3_DiscoveryZipfMix(b *testing.B) {
	// A population of query points with Zipf-like popularity: cache hit
	// rate dominates as the resolver warms.
	f := getFixtures(b)
	res := f.fed.NewResolver()
	disc := discovery.NewClient(res, discovery.DefaultSuffix)
	rng := rand.New(rand.NewSource(3))
	zipf := rand.NewZipf(rng, 1.2, 1, 63)
	points := make([]geo.LatLng, 64)
	for i := range points {
		points[i] = geo.Offset(cityCorner, float64(i*13%800), float64(i*37%360))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		disc.Discover(points[zipf.Uint64()])
	}
	st := res.Stats()
	total := st.CacheHits + st.CacheMisses
	if total > 0 {
		b.ReportMetric(float64(st.CacheHits)/float64(total), "cachehit_ratio")
	}
}

// ================= E4: covering size vs cell level =======================
// §5.1: zones are approximated by collections of cells; the level trades
// announcement count against discovery precision.

func BenchmarkE4_Covering(b *testing.B) {
	for _, level := range []int{12, 13, 14, 15, 16} {
		b.Run(fmt.Sprintf("level=%d", level), func(b *testing.B) {
			cap := s2cell.CapRegion{Cap: geo.Cap{
				Center: geo.LatLng{Lat: 40.4415, Lng: -79.9955}, RadiusMeters: 400}}
			var cells []s2cell.CellID
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cells = s2cell.Covering(cap, level, 0)
			}
			b.ReportMetric(float64(len(cells)), "cells")
		})
	}
}

// ================= E5: federated route stretch ===========================
// §5.2: stitched routes vs the centralized optimum.

func BenchmarkE5_RouteStitch(b *testing.B) {
	f := getFixtures(b)
	c := warmClient(b, f)
	store := f.world.Stores[0]
	product := store.Products[len(store.Products)-1]
	shelfResp := f.central.Search(wire.SearchRequest{Query: product, Limit: 1})
	if len(shelfResp.Results) == 0 {
		b.Fatal("no shelf")
	}
	to := shelfResp.Results[0].Position
	optimal := f.central.Route(wire.RouteRequest{From: cityCorner, To: to})
	if !optimal.Found {
		b.Fatal("no optimal route")
	}
	var stretchSum float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route, err := c.RouteV2(context.Background(), cityCorner, to)
		if err != nil {
			b.Fatal(err)
		}
		stretchSum += route.CostSeconds / optimal.CostSeconds
	}
	b.ReportMetric(stretchSum/float64(b.N), "stretch")
}

// ================= E6: federated search recall vs servers ================
// §5.2: recall reaches 1.0 once every covering server has answered.

func BenchmarkE6_FederatedSearch(b *testing.B) {
	f := getFixtures(b)
	store := f.world.Stores[0]
	near := storeEntrance(store)
	query := store.Products[0]
	// Ground truth: the centralized system's result set.
	truthResp := f.central.Search(wire.SearchRequest{Query: query, Near: &near,
		MaxDistanceMeters: 1000, Limit: 10})
	truth := map[string]bool{}
	for _, r := range truthResp.Results {
		truth[r.Name+r.Position.String()] = true
	}
	if len(truth) == 0 {
		b.Fatal("empty ground truth")
	}
	c := warmClient(b, f)
	maxServers := len(f.fed.Servers)
	for k := 1; k <= maxServers; k++ {
		b.Run(fmt.Sprintf("servers=%d", k), func(b *testing.B) {
			var recallSum float64
			for i := 0; i < b.N; i++ {
				got := c.SearchV2(context.Background(), query, near, 10, client.WithMaxServers(k))
				hit := 0
				for _, r := range got {
					if truth[r.Name+r.Position.String()] {
						hit++
					}
				}
				recallSum += float64(hit) / float64(len(truth))
			}
			b.ReportMetric(recallSum/float64(b.N), "recall")
		})
	}
}

// ================= E7: localization accuracy =============================
// §2/§4: indoors, the store's fingerprint service vs raw GPS.

func BenchmarkE7_Localization(b *testing.B) {
	f := getFixtures(b)
	c := warmClient(b, f)
	store := f.world.Stores[0]
	ga, err := align.FitGeo(store.Correspondences)
	if err != nil {
		b.Fatal(err)
	}
	gps := loc.DefaultGPSModel()
	rng := rand.New(rand.NewSource(7))
	var fpErr, gpsErr float64
	n := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		truth := geo.Point{X: rng.Float64()*30 - 15, Y: rng.Float64() * 20}
		world := ga.ToWorld(truth)
		cue := loc.SynthesizeRSSICue(truth, store.Beacons, loc.DefaultRadioModel(), rng)
		gpsCue, ok := gps.Sample(world, true, rng)
		if !ok {
			continue
		}
		fix, ok := c.LocalizeV2(context.Background(), *gpsCue.GPS, []loc.Cue{cue}, *gpsCue.GPS, gps.IndoorSigmaMeters)
		if !ok {
			continue
		}
		fpErr += fix.Local.Dist(truth)
		gpsErr += geo.DistanceMeters(world, *gpsCue.GPS)
		n++
	}
	if n > 0 {
		b.ReportMetric(fpErr/float64(n), "fp_err_m")
		b.ReportMetric(gpsErr/float64(n), "gps_err_m")
	}
}

// ================= E8: tile rendering and stitching ======================

func BenchmarkE8_TileRender(b *testing.B) {
	f := getFixtures(b)
	r := tiles.NewRenderer(f.world.Outdoor, tiles.DefaultStyle())
	coord := tiles.FromLatLng(storeEntrance(f.world.Stores[0]), 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Render(coord)
	}
}

func BenchmarkE8_TileStitch(b *testing.B) {
	f := getFixtures(b)
	store := f.world.Stores[0]
	style := tiles.DefaultStyle()
	coord := tiles.FromLatLng(storeEntrance(store), 17)
	outdoor := tiles.NewRenderer(f.world.Outdoor, style).Render(coord)
	indoor := tiles.NewRenderer(store.Map, style).Render(coord)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tiles.Stitch([]*raster.Canvas{outdoor, indoor},
			[]color.RGBA{style.Background, style.Background})
	}
}

// ================= E9: overlap and fuzzy boundaries ======================
// §3: multiple servers legitimately cover one region; boundary spill-over
// must not hide the responsible server.

func BenchmarkE9_Overlap(b *testing.B) {
	f := getFixtures(b)
	c := f.fed.NewClient()
	store := f.world.Stores[0]
	entrance := storeEntrance(store)
	rng := rand.New(rand.NewSource(9))
	var both, total float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Points scattered around the storefront, inside and outside.
		p := geo.Offset(entrance, rng.Float64()*30, rng.Float64()*360)
		names := map[string]bool{}
		for _, a := range c.DiscoverV2(context.Background(), p) {
			names[a.Name] = true
		}
		total++
		storeName := store.PortalID[len("portal-"):]
		if names["world-map"] && names[storeName] {
			both++
		}
	}
	b.ReportMetric(both/total, "both_found_ratio")
}

// ================= E10: auth policy overhead =============================
// §5.3: the per-request cost of user/service/application checks.

func BenchmarkE10_Auth(b *testing.B) {
	store := worldgen.GenStore(worldgen.DefaultStoreParams("Policy Mart",
		geo.LatLng{Lat: 40.4500, Lng: -79.9500}))
	for _, mode := range []string{"off", "on"} {
		var policy *mapserver.Policy
		if mode == "on" {
			policy = &mapserver.Policy{
				Default: mapserver.Rule{},
				PerService: map[wire.Service]mapserver.Rule{
					wire.SvcSearch: {UserDomains: []string{"cmu.edu"}, Apps: []string{"nav"}},
				},
			}
		}
		srv, err := mapserver.New(mapserver.Config{Name: "policy-mart", Map: store.Map, Auth: policy})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("policy="+mode, func(b *testing.B) {
			fed, err := core.NewFederation()
			if err != nil {
				b.Fatal(err)
			}
			defer fed.Close()
			h, err := fed.AddServer(srv)
			if err != nil {
				b.Fatal(err)
			}
			c := fed.NewClient()
			c.User, c.App = "alice@cmu.edu", "nav"
			_ = h
			entrance := storeEntrance(store)
			c.DiscoverV2(context.Background(), entrance)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := c.SearchV2(context.Background(), store.Products[0], entrance, 5); len(got) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}

// ================= E11: map update scalability ===========================
// §1: federation decouples map management; the centralized pipeline pays a
// global re-preprocess for any constituent change.

func BenchmarkE11_UpdateFederated(b *testing.B) {
	f := getFixtures(b)
	h := f.fed.FindServer("corner-grocery")
	if h == nil {
		h = f.fed.Servers[1]
	}
	shelf := h.Server.Store().Map().FindNodes(func(n *osm.Node) bool {
		return n.Tags.Has(osm.TagProduct)
	})[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tags := shelf.Tags.Clone()
		tags[osm.TagProduct] = fmt.Sprintf("rotating stock %d", i)
		if !h.Server.ApplyInventoryUpdate(shelf.ID, tags) {
			b.Fatal("update failed")
		}
	}
}

func BenchmarkE11_UpdateCentralized(b *testing.B) {
	// A dedicated system instance: UpdateAndRebuild mutates state.
	world := worldgen.GenWorld(worldgen.DefaultWorldParams())
	sources := []centralized.Source{{Map: world.Outdoor}}
	for _, s := range world.Stores {
		ga, err := align.FitGeo(s.Correspondences)
		if err != nil {
			b.Fatal(err)
		}
		sources = append(sources, centralized.Source{Map: s.Map, Alignment: ga})
	}
	sys, err := centralized.Build(sources, nil)
	if err != nil {
		b.Fatal(err)
	}
	shelf := world.Stores[0].Map.FindNodes(func(n *osm.Node) bool {
		return n.Tags.Has(osm.TagProduct)
	})[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tags := shelf.Tags.Clone()
		tags[osm.TagProduct] = fmt.Sprintf("rotating stock %d", i)
		if err := sys.UpdateAndRebuild(1, shelf.ID, tags); err != nil {
			b.Fatal(err)
		}
	}
}

// ================= E12: contraction hierarchies ablation =================
// §4.1: the preprocessing the centralized model leans on.

func BenchmarkE12_CH(b *testing.B) {
	f := getFixtures(b)
	g := f.central.Graph()
	ids := g.NodeIDs()
	rng := rand.New(rand.NewSource(12))
	pairs := make([][2]int64, 128)
	for i := range pairs {
		pairs[i] = [2]int64{ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]}
	}
	run := func(b *testing.B, q func(a, c int64) (int, error)) {
		settledSum, n := 0, 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			settled, err := q(p[0], p[1])
			if err != nil {
				continue
			}
			settledSum += settled
			n++
		}
		if n > 0 {
			b.ReportMetric(float64(settledSum)/float64(n), "settled/op")
		}
	}
	b.Run("dijkstra", func(b *testing.B) {
		run(b, func(a, c int64) (int, error) {
			p, err := g.Dijkstra(a, c)
			return p.Settled, err
		})
	})
	b.Run("bidirectional", func(b *testing.B) {
		run(b, func(a, c int64) (int, error) {
			p, err := g.BiDijkstra(a, c)
			return p.Settled, err
		})
	})
	b.Run("ch", func(b *testing.B) {
		ch := graph.BuildCH(g)
		b.ResetTimer()
		run(b, func(a, c int64) (int, error) {
			p, err := ch.Query(a, c)
			return p.Settled, err
		})
	})
}
