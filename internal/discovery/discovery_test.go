package discovery

import (
	"context"
	"net"
	"reflect"
	"strings"
	"testing"

	"openflame/internal/dns"
	"openflame/internal/geo"
	"openflame/internal/loc"
	"openflame/internal/s2cell"
	"openflame/internal/wire"
)

func TestCellDomainHierarchy(t *testing.T) {
	ll := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	leaf := s2cell.FromLatLng(ll)
	// The domain of a parent cell is a DNS suffix of the child's domain.
	for level := 2; level <= 16; level++ {
		child := CellDomain(leaf.Parent(level), DefaultSuffix)
		parent := CellDomain(leaf.Parent(level-1), DefaultSuffix)
		if !strings.HasSuffix(child, "."+parent) {
			t.Fatalf("level %d: %q not under %q", level, child, parent)
		}
	}
	// Face cell: just f<face>.suffix.
	face := CellDomain(leaf.Parent(0), DefaultSuffix)
	if !strings.HasPrefix(face, "f") || strings.Count(face, ".") != strings.Count(DefaultSuffix, ".")+1 {
		t.Fatalf("face domain = %q", face)
	}
}

func TestCellDomainDistinctSiblings(t *testing.T) {
	c := s2cell.FromLatLngLevel(geo.LatLng{Lat: 40.44, Lng: -79.99}, 10)
	kids := c.Children()
	seen := map[string]bool{}
	for _, k := range kids {
		d := CellDomain(k, DefaultSuffix)
		if seen[d] {
			t.Fatalf("duplicate sibling domain %q", d)
		}
		seen[d] = true
	}
}

func TestTXTRoundTrip(t *testing.T) {
	a := Announcement{
		Name:         "corner-grocery",
		URL:          "http://10.1.2.3:8080",
		Services:     []wire.Service{wire.SvcSearch, wire.SvcRoute},
		Technologies: []loc.Technology{loc.TechWiFiRSSI},
	}
	got, ok := ParseTXT(FormatTXT(a))
	if !ok {
		t.Fatal("round trip parse failed")
	}
	if got.Name != a.Name || got.URL != a.URL ||
		!reflect.DeepEqual(got.Services, a.Services) ||
		!reflect.DeepEqual(got.Technologies, a.Technologies) {
		t.Fatalf("got %+v want %+v", got, a)
	}
}

func TestParseTXTRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"",
		"v=flame2 name=x url=y",       // wrong version
		"v=flame1 url=y",              // missing name
		"v=flame1 name=x",             // missing url
		"hello world",                 // not k=v
		"v=flame1 name= url=http://x", // empty name
	} {
		if _, ok := ParseTXT(s); ok {
			t.Errorf("ParseTXT(%q) accepted", s)
		}
	}
}

// fixture wires a registry zone and a resolver over the in-memory
// transport, with the spatial zone delegated from a root.
type fixture struct {
	mem      *dns.MemExchanger
	locZone  *dns.Zone
	resolver *dns.Resolver
	registry *Registry
	client   *Client
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	mem := dns.NewMemExchanger()
	root := dns.NewZone("flame.arpa.")
	locZone := dns.NewZone(DefaultSuffix)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(root.Add(dns.RR{Name: DefaultSuffix, Type: dns.TypeNS, TTL: 300, Target: "ns." + DefaultSuffix}))
	must(root.Add(dns.RR{Name: "ns." + DefaultSuffix, Type: dns.TypeA, TTL: 300, IP: net.IPv4(10, 0, 0, 2)}))
	mem.Register("10.0.0.1:53", root)
	mem.Register("10.0.0.2:53", locZone)
	res := dns.NewResolver(mem, []dns.RootHint{{Name: "ns.flame.arpa.", Addr: "10.0.0.1:53"}})
	return &fixture{
		mem:      mem,
		locZone:  locZone,
		resolver: res,
		registry: NewRegistry(locZone, DefaultSuffix),
		client:   NewClient(res, DefaultSuffix),
	}
}

// coverageFor returns the registration covering tokens for a cap.
func coverageFor(center geo.LatLng, radius float64) []string {
	cells := s2cell.RegistrationCovering(
		s2cell.CapRegion{Cap: geo.Cap{Center: center, RadiusMeters: radius}},
		DefaultMinLevel, DefaultMaxLevel)
	toks := make([]string, len(cells))
	for i, c := range cells {
		toks[i] = c.Token()
	}
	return toks
}

func TestRegisterAndDiscover(t *testing.T) {
	f := newFixture(t)
	entrance := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	info := wire.Info{
		Name:     "corner-grocery",
		Coverage: coverageFor(entrance, 40),
		Services: []wire.Service{wire.SvcSearch, wire.SvcRoute, wire.SvcLocalize},
	}
	if err := f.registry.Register(info, "http://10.1.0.1:8080"); err != nil {
		t.Fatal(err)
	}
	got := f.client.Discover(entrance)
	if len(got) != 1 {
		t.Fatalf("discovered %d servers: %v", len(got), got)
	}
	if got[0].Name != "corner-grocery" || got[0].URL != "http://10.1.0.1:8080" {
		t.Fatalf("announcement = %+v", got[0])
	}
	// A point across town discovers nothing.
	if got := f.client.Discover(geo.LatLng{Lat: 40.48, Lng: -79.90}); len(got) != 0 {
		t.Fatalf("far point discovered %v", got)
	}
}

func TestDiscoverOverlappingServers(t *testing.T) {
	// §3: multiple maps may cover the same region — both are found.
	f := newFixture(t)
	spot := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	for _, name := range []string{"google-maps", "corner-grocery"} {
		info := wire.Info{Name: name, Coverage: coverageFor(spot, 60)}
		if err := f.registry.Register(info, "http://"+name+".example"); err != nil {
			t.Fatal(err)
		}
	}
	got := f.client.Discover(spot)
	if len(got) != 2 {
		t.Fatalf("discovered %d servers: %v", len(got), got)
	}
}

func TestDiscoverFuzzyBoundaries(t *testing.T) {
	// §3: boundaries are fuzzy; adjacent stores with padded coverings are
	// both discovered near their shared wall.
	f := newFixture(t)
	wall := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	left := geo.Offset(wall, 30, 270)
	right := geo.Offset(wall, 30, 90)
	for name, center := range map[string]geo.LatLng{"left-store": left, "right-store": right} {
		// 45m radius spills over the 30m half-width: intentional fuzz.
		if err := f.registry.Register(wire.Info{Name: name, Coverage: coverageFor(center, 45)},
			"http://"+name); err != nil {
			t.Fatal(err)
		}
	}
	got := f.client.Discover(wall)
	if len(got) != 2 {
		t.Fatalf("at the fuzzy wall, discovered %v", got)
	}
	// Far inside the left store, at least the left store is present.
	deepLeft := geo.Offset(wall, 55, 270)
	names := map[string]bool{}
	for _, a := range f.client.Discover(deepLeft) {
		names[a.Name] = true
	}
	if !names["left-store"] {
		t.Fatalf("deep-left discovery = %v", names)
	}
}

func TestDiscoverUsesCache(t *testing.T) {
	f := newFixture(t)
	spot := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	if err := f.registry.Register(wire.Info{Name: "s", Coverage: coverageFor(spot, 40)}, "http://s"); err != nil {
		t.Fatal(err)
	}
	f.client.Discover(spot)
	before := f.mem.ExchangeCount()
	f.client.Discover(spot)
	if got := f.mem.ExchangeCount() - before; got != 0 {
		t.Fatalf("cached discovery made %d upstream queries", got)
	}
	// Negative caching also covers empty regions.
	empty := geo.LatLng{Lat: 40.48, Lng: -79.90}
	f.client.Discover(empty)
	before = f.mem.ExchangeCount()
	f.client.Discover(empty)
	if got := f.mem.ExchangeCount() - before; got != 0 {
		t.Fatalf("cached negative discovery made %d queries", got)
	}
}

func TestUnregister(t *testing.T) {
	f := newFixture(t)
	spot := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	cov := coverageFor(spot, 40)
	if err := f.registry.Register(wire.Info{Name: "a", Coverage: cov}, "http://a"); err != nil {
		t.Fatal(err)
	}
	if err := f.registry.Register(wire.Info{Name: "b", Coverage: cov}, "http://b"); err != nil {
		t.Fatal(err)
	}
	if removed := f.registry.Unregister("a", cov); removed == 0 {
		t.Fatal("nothing unregistered")
	}
	f.resolver.FlushCache()
	got := f.client.Discover(spot)
	if len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("after unregister: %v", got)
	}
}

func TestSpatialSubtreeDelegation(t *testing.T) {
	// §5.1 federation: an organization runs its own DNS for its spatial
	// subtree. Delegate the campus's level-12 cell to a separate zone and
	// confirm the resolver walks through the cut.
	f := newFixture(t)
	campus := geo.LatLng{Lat: 40.4433, Lng: -79.9436}
	cell12 := s2cell.FromLatLngLevel(campus, 12)
	cutName := CellDomain(cell12, DefaultSuffix)

	orgZone := dns.NewZone(cutName)
	f.mem.Register("10.0.0.9:53", orgZone)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.locZone.Add(dns.RR{Name: cutName, Type: dns.TypeNS, TTL: 300, Target: "ns." + cutName}))
	must(f.locZone.Add(dns.RR{Name: "ns." + cutName, Type: dns.TypeA, TTL: 300, IP: net.IPv4(10, 0, 0, 9)}))

	// The org registers its building in its own zone.
	orgRegistry := NewRegistry(orgZone, DefaultSuffix)
	cells := s2cell.RegistrationCovering(
		s2cell.CapRegion{Cap: geo.Cap{Center: campus, RadiusMeters: 60}}, 14, DefaultMaxLevel)
	toks := make([]string, len(cells))
	for i, c := range cells {
		toks[i] = c.Token()
	}
	must(orgRegistry.Register(wire.Info{Name: "campus-map", Coverage: toks}, "http://campus.edu:8080"))

	got := f.client.Discover(campus)
	if len(got) != 1 || got[0].Name != "campus-map" {
		t.Fatalf("delegated discovery = %v", got)
	}
}

func TestDiscoverRegion(t *testing.T) {
	f := newFixture(t)
	a := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	b := geo.LatLng{Lat: 40.4455, Lng: -79.9915}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.registry.Register(wire.Info{Name: "store-a", Coverage: coverageFor(a, 40)}, "http://a"))
	must(f.registry.Register(wire.Info{Name: "store-b", Coverage: coverageFor(b, 40)}, "http://b"))
	region := s2cell.RectRegion{Rect: geo.EmptyRect().ExpandToInclude(a).ExpandToInclude(b).ExpandedMeters(50)}
	got := f.client.DiscoverRegion(region)
	if len(got) != 2 {
		t.Fatalf("region discovery = %v", got)
	}
	if got[0].Name != "store-a" || got[1].Name != "store-b" {
		t.Fatalf("region order = %v", got)
	}
}

func TestDiscoverAlongPath(t *testing.T) {
	f := newFixture(t)
	start := geo.LatLng{Lat: 40.4400, Lng: -79.9990}
	end := geo.Offset(start, 800, 90)
	mid := geo.Interpolate(start, end, 0.5)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.registry.Register(wire.Info{Name: "mid-store", Coverage: coverageFor(mid, 40)}, "http://mid"))
	must(f.registry.Register(wire.Info{Name: "end-store", Coverage: coverageFor(end, 40)}, "http://end"))
	got := f.client.DiscoverAlongPathCtx(context.Background(), []geo.LatLng{start, end}, 50)
	names := map[string]bool{}
	for _, a := range got {
		names[a.Name] = true
	}
	if !names["mid-store"] || !names["end-store"] {
		t.Fatalf("path discovery = %v", names)
	}
}

func TestRegistryValidation(t *testing.T) {
	f := newFixture(t)
	if err := f.registry.Register(wire.Info{Name: "x"}, "http://x"); err == nil {
		t.Fatal("empty coverage accepted")
	}
	if err := f.registry.Register(wire.Info{Name: "x", Coverage: []string{"zz"}}, "http://x"); err == nil {
		t.Fatal("bad token accepted")
	}
}

func BenchmarkDiscoverCached(b *testing.B) {
	f := newFixture(b)
	spot := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	if err := f.registry.Register(wire.Info{Name: "s", Coverage: coverageFor(spot, 40)}, "http://s"); err != nil {
		b.Fatal(err)
	}
	f.client.Discover(spot)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := f.client.Discover(spot); len(got) != 1 {
			b.Fatal("discovery failed")
		}
	}
}

func BenchmarkDiscoverCold(b *testing.B) {
	f := newFixture(b)
	spot := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	if err := f.registry.Register(wire.Info{Name: "s", Coverage: coverageFor(spot, 40)}, "http://s"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.resolver.FlushCache()
		if got := f.client.Discover(spot); len(got) != 1 {
			b.Fatal("discovery failed")
		}
	}
}
