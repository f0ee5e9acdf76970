package openflame

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"openflame/internal/align"
	"openflame/internal/client"
	"openflame/internal/discovery"
	"openflame/internal/dns"
	"openflame/internal/geo"
	"openflame/internal/mapserver"
	"openflame/internal/worldgen"
)

// TestFullStackOverRealSockets runs the entire architecture with nothing
// simulated in-process: authoritative DNS servers on real loopback UDP/TCP
// sockets (root zone delegating the spatial zone with SRV glue for the
// ephemeral port), map servers on real HTTP listeners, and a client whose
// resolver speaks actual wire-format DNS.
func TestFullStackOverRealSockets(t *testing.T) {
	world := worldgen.GenWorld(worldgen.DefaultWorldParams())

	// --- spatial zone on a real DNS server -------------------------------
	locZone := dns.NewZone(discovery.DefaultSuffix)
	locSrv, err := dns.NewServer(locZone, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer locSrv.Close()
	_, locPortStr, _ := net.SplitHostPort(locSrv.Addr())
	var locPort int
	fmt.Sscanf(locPortStr, "%d", &locPort)

	// --- root zone delegating it ------------------------------------------
	rootZone := dns.NewZone("flame.arpa.")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(rootZone.Add(dns.RR{Name: discovery.DefaultSuffix, Type: dns.TypeNS, TTL: 300,
		Target: "ns." + discovery.DefaultSuffix}))
	must(rootZone.Add(dns.RR{Name: "ns." + discovery.DefaultSuffix, Type: dns.TypeA, TTL: 300,
		IP: net.IPv4(127, 0, 0, 1)}))
	must(rootZone.Add(dns.RR{Name: "ns." + discovery.DefaultSuffix, Type: dns.TypeSRV, TTL: 300,
		SRV: &dns.SRVData{Port: uint16(locPort), Target: "ns." + discovery.DefaultSuffix}}))
	rootSrv, err := dns.NewServer(rootZone, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rootSrv.Close()

	// --- map servers on real HTTP listeners -------------------------------
	registry := discovery.NewRegistry(locZone, discovery.DefaultSuffix)
	citySrv, err := mapserver.New(mapserver.Config{Name: "world-map", Map: world.Outdoor, UseCH: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := citySrv.WaitCH(context.Background()); err != nil {
		t.Fatal(err)
	}
	cityHTTP := httptest.NewServer(citySrv.Handler())
	defer cityHTTP.Close()
	must(registry.Register(citySrv.Info(), cityHTTP.URL))

	store := world.Stores[0]
	ga, err := align.FitGeo(store.Correspondences)
	if err != nil {
		t.Fatal(err)
	}
	storeSrv, err := mapserver.New(mapserver.Config{
		Name: "corner-grocery", Map: store.Map, Alignment: ga,
		Beacons: store.Beacons, Fiducials: store.Fiducials,
	})
	if err != nil {
		t.Fatal(err)
	}
	storeHTTP := httptest.NewServer(storeSrv.Handler())
	defer storeHTTP.Close()
	must(registry.Register(storeSrv.Info(), storeHTTP.URL))

	// --- client with a real UDP resolver -----------------------------------
	resolver := dns.NewResolver(dns.UDPExchanger{}, []dns.RootHint{
		{Name: "root.", Addr: rootSrv.Addr()}})
	disc := discovery.NewClient(resolver, discovery.DefaultSuffix)
	c := client.New(disc, http.DefaultClient)
	c.WorldURL = cityHTTP.URL

	entrance := store.Correspondences[len(store.Correspondences)-1].World

	// Discovery over the wire.
	anns := c.DiscoverV2(context.Background(), entrance)
	names := map[string]bool{}
	for _, a := range anns {
		names[a.Name] = true
	}
	if !names["world-map"] || !names["corner-grocery"] {
		t.Fatalf("UDP discovery = %v", names)
	}

	// Federated search.
	product := store.Products[0]
	results := c.SearchV2(context.Background(), product, entrance, 5)
	if len(results) == 0 || !strings.Contains(results[0].Name, product) {
		t.Fatalf("search = %v", results)
	}

	// Stitched route street → shelf.
	from := geo.LatLng{Lat: 40.4400, Lng: -79.9990}
	route, err := c.RouteV2(context.Background(), from, results[0].Position)
	if err != nil {
		t.Fatal(err)
	}
	if route.ServersUsed < 2 {
		t.Fatalf("route used %d servers", route.ServersUsed)
	}

	// DNS really went over the wire.
	if rootSrv.QueryCount() == 0 || locSrv.QueryCount() == 0 {
		t.Fatalf("DNS servers unused: root=%d loc=%d", rootSrv.QueryCount(), locSrv.QueryCount())
	}
	// And caching kept the load sane: another client action should add few
	// root queries (the delegation is cached).
	before := rootSrv.QueryCount()
	c.SearchV2(context.Background(), product, entrance, 5)
	if rootSrv.QueryCount() > before {
		t.Fatalf("root server re-queried despite cache: %d -> %d", before, rootSrv.QueryCount())
	}
}

// TestCentralizedAndFederatedAgree cross-checks the two architectures on
// the same world: same search hits, same route cost (stretch 1 when the
// portal is the only crossing).
func TestCentralizedAndFederatedAgree(t *testing.T) {
	// Covered in detail by bench E5/E6; this is the correctness assertion
	// form, run as part of the normal test suite.
	world := worldgen.GenWorld(worldgen.DefaultWorldParams())
	fedRoute, fedHits := federatedAnswer(t, world)
	cenRoute, cenHits := centralizedAnswer(t, world)
	if fedHits == 0 || fedHits != cenHits {
		t.Fatalf("hit counts: federated %d vs centralized %d", fedHits, cenHits)
	}
	if fedRoute <= 0 || cenRoute <= 0 {
		t.Fatal("missing route")
	}
	stretch := fedRoute / cenRoute
	if stretch < 0.999 || stretch > 1.05 {
		t.Fatalf("stretch = %v", stretch)
	}
}
