package openflame

import (
	"context"
	"testing"

	"openflame/internal/mapserver"
	"openflame/internal/wire"
	"openflame/internal/worldgen"
)

// ================= E15: server-side read path ============================
// PR 3 moves the caching story server-side: a generation-keyed query
// result cache (hot repeated queries compute once per map generation) and
// a batched wire API (a client's sub-queries to one server share a round
// trip). E15 measures both: cached vs uncached hot-query service time on
// one server, and HTTP round trips per client Geocode with and without
// /v1/batch.

func BenchmarkE15_HotQuery(b *testing.B) {
	city := worldgen.GenCity(worldgen.DefaultCityParams())
	for _, mode := range []struct {
		name    string
		entries int
	}{
		{"uncached", 0},
		{"cached", 4096},
	} {
		srv, err := mapserver.New(mapserver.Config{
			Name: "city", Map: city, QueryCacheEntries: mode.entries,
		})
		if err != nil {
			b.Fatal(err)
		}
		a := srv.Geocode(wire.GeocodeRequest{Query: "1st Street", Limit: 1}).Results[0].Position
		z := srv.Geocode(wire.GeocodeRequest{Query: "9th Street", Limit: 1}).Results[0].Position
		b.Run("search/"+mode.name, func(b *testing.B) {
			req := wire.SearchRequest{Query: "3rd Street", Limit: 10}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(srv.Search(req).Results) == 0 {
					b.Fatal("search found nothing")
				}
			}
		})
		b.Run("route/"+mode.name, func(b *testing.B) {
			req := wire.RouteRequest{From: a, To: z}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !srv.Route(req).Found {
					b.Fatal("route not found")
				}
			}
		})
	}
}

func BenchmarkE15_BatchRoundTrips(b *testing.B) {
	f := getFixtures(b)
	store := f.world.Stores[0]
	address := store.Products[0] + " shelf, " + store.Map.Name
	for _, mode := range []struct {
		name  string
		batch bool
	}{
		{"percall", false},
		{"batched", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			c := f.fed.NewClient()
			c.UseBatch = mode.batch
			req0 := c.RequestCount()
			for i := 0; i < b.N; i++ {
				if _, err := c.GeocodeV2(context.Background(), address); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.RequestCount()-req0)/float64(b.N), "httpreqs/op")
		})
	}
}
