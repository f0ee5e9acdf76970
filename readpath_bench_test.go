package openflame

import (
	"testing"

	"openflame/internal/mapserver"
	"openflame/internal/wire"
	"openflame/internal/worldgen"
)

// ================= E15: server-side read path ============================
// A generation-keyed query result cache: hot repeated queries compute once
// per map generation. E15 measures cached vs uncached hot-query service
// time on one server.

func BenchmarkE15_HotQuery(b *testing.B) {
	city := worldgen.GenWorld(worldgen.WorldParams{City: worldgen.DefaultCityParams()}).Outdoor
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
