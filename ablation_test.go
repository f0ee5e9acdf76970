// Ablation benchmarks for the design choices DESIGN.md calls out: the DNS
// registration level range (announcement count vs discovery precision),
// the DNS transport (in-memory protocol vs real UDP sockets), and client
// fan-out as the federation grows.
package openflame

import (
	"context"
	"fmt"
	"net"
	"testing"

	"openflame/internal/core"
	"openflame/internal/discovery"
	"openflame/internal/dns"
	"openflame/internal/geo"
	"openflame/internal/mapserver"
	"openflame/internal/s2cell"
	"openflame/internal/wire"
	"openflame/internal/worldgen"
)

// BenchmarkAblation_RegistrationLevels sweeps the finest registration
// level for a store-sized zone: finer cells mean more DNS records but less
// over-discovery (fraction of nearby-but-outside points that still find
// the store).
func BenchmarkAblation_RegistrationLevels(b *testing.B) {
	entrance := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	zone := s2cell.CapRegion{Cap: geo.Cap{Center: entrance, RadiusMeters: 45}}
	for _, maxLevel := range []int{13, 14, 15, 16, 17} {
		b.Run(fmt.Sprintf("maxLevel=%d", maxLevel), func(b *testing.B) {
			cells := s2cell.RegistrationCovering(zone, 12, maxLevel)
			toks := make([]string, len(cells))
			for i, c := range cells {
				toks[i] = c.Token()
			}
			mem := dns.NewMemExchanger()
			locZone := dns.NewZone(discovery.DefaultSuffix)
			mem.Register("10.0.0.2:53", locZone)
			reg := discovery.NewRegistry(locZone, discovery.DefaultSuffix)
			if err := reg.Register(wire.Info{Name: "store", Coverage: toks}, "http://store"); err != nil {
				b.Fatal(err)
			}
			res := dns.NewResolver(mem, []dns.RootHint{{Name: "ns.", Addr: "10.0.0.2:53"}})
			disc := discovery.NewClient(res, discovery.DefaultSuffix)
			disc.MaxLevel = maxLevel

			// Over-discovery: points 100-200m away that still find the store.
			over, total := 0, 0
			for brg := 0.0; brg < 360; brg += 30 {
				for _, d := range []float64{100, 150, 200} {
					p := geo.Offset(entrance, d, brg)
					total++
					if len(disc.Discover(p)) > 0 {
						over++
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := disc.Discover(entrance); len(got) == 0 {
					b.Fatal("store not discovered at its own entrance")
				}
			}
			b.ReportMetric(float64(len(toks)), "dnsrecords")
			b.ReportMetric(float64(over)/float64(total), "overdiscovery_ratio")
		})
	}
}

// BenchmarkAblation_DNSTransport compares cold discovery through the
// in-memory exchanger against real loopback UDP sockets: the protocol work
// is identical; the socket stack is the difference.
func BenchmarkAblation_DNSTransport(b *testing.B) {
	entrance := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	cov := s2cell.RegistrationCovering(
		s2cell.CapRegion{Cap: geo.Cap{Center: entrance, RadiusMeters: 45}},
		discovery.DefaultMinLevel, discovery.DefaultMaxLevel)
	toks := make([]string, len(cov))
	for i, c := range cov {
		toks[i] = c.Token()
	}

	b.Run("transport=memory", func(b *testing.B) {
		mem := dns.NewMemExchanger()
		locZone := dns.NewZone(discovery.DefaultSuffix)
		mem.Register("10.0.0.2:53", locZone)
		reg := discovery.NewRegistry(locZone, discovery.DefaultSuffix)
		if err := reg.Register(wire.Info{Name: "store", Coverage: toks}, "http://store"); err != nil {
			b.Fatal(err)
		}
		res := dns.NewResolver(mem, []dns.RootHint{{Name: "ns.", Addr: "10.0.0.2:53"}})
		disc := discovery.NewClient(res, discovery.DefaultSuffix)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res.FlushCache()
			if got := disc.Discover(entrance); len(got) == 0 {
				b.Fatal("not discovered")
			}
		}
	})

	b.Run("transport=udp", func(b *testing.B) {
		locZone := dns.NewZone(discovery.DefaultSuffix)
		reg := discovery.NewRegistry(locZone, discovery.DefaultSuffix)
		if err := reg.Register(wire.Info{Name: "store", Coverage: toks}, "http://store"); err != nil {
			b.Fatal(err)
		}
		srv, err := dns.NewServer(locZone, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		_ = net.IPv4zero
		res := dns.NewResolver(dns.UDPExchanger{}, []dns.RootHint{{Name: "ns.", Addr: srv.Addr()}})
		disc := discovery.NewClient(res, discovery.DefaultSuffix)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res.FlushCache()
			if got := disc.Discover(entrance); len(got) == 0 {
				b.Fatal("not discovered")
			}
		}
	})
}

// BenchmarkAblation_FederationScale grows the number of store servers and
// measures a product search near one store: wall time and HTTP fan-out per
// query. Region discovery bounds the fan-out to nearby servers, so cost
// grows with local density, not federation size.
func BenchmarkAblation_FederationScale(b *testing.B) {
	for _, stores := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("stores=%d", stores), func(b *testing.B) {
			params := worldgen.DefaultWorldParams()
			params.City.BlocksX, params.City.BlocksY = 10, 10
			params.NumStores = stores
			world := worldgen.GenWorld(params)
			fed, err := core.DeployWorld(world)
			if err != nil {
				b.Fatal(err)
			}
			defer fed.Close()
			c := fed.NewClient()
			store := world.Stores[0]
			entrance := store.Correspondences[len(store.Correspondences)-1].World
			product := store.Products[0]
			c.SearchV2(context.Background(), product, entrance, 10) // warm caches
			req0 := c.RequestCount()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := c.SearchV2(context.Background(), product, entrance, 10); len(got) == 0 {
					b.Fatal("no results")
				}
			}
			b.ReportMetric(float64(c.RequestCount()-req0)/float64(b.N), "httpreqs/op")
		})
	}
}

// BenchmarkAblation_ServerSideCH toggles contraction hierarchies on the
// world map server and measures the /route code path directly (no HTTP).
func BenchmarkAblation_ServerSideCH(b *testing.B) {
	world := worldgen.GenWorld(worldgen.DefaultWorldParams())
	for _, useCH := range []bool{false, true} {
		b.Run(fmt.Sprintf("ch=%v", useCH), func(b *testing.B) {
			srv, err := mapserver.New(mapserver.Config{Name: "city", Map: world.Outdoor, UseCH: useCH})
			if err != nil {
				b.Fatal(err)
			}
			if err := srv.WaitCH(context.Background()); err != nil {
				b.Fatal(err)
			}
			from := geo.LatLng{Lat: 40.4400, Lng: -79.9990}
			to := geo.Offset(geo.Offset(from, 700, 0), 700, 90)
			req := wire.RouteRequest{From: from, To: to}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if resp := srv.Route(req); !resp.Found {
					b.Fatal("no route")
				}
			}
		})
	}
}
