package osm

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"openflame/internal/geo"
)

func geodeticMap(t testing.TB) *Map {
	t.Helper()
	mb := NewBuilder("downtown", Frame{Kind: FrameGeodetic})
	a := mb.AddNode(&Node{Pos: geo.LatLng{Lat: 40.4400, Lng: -79.9960}, Tags: Tags{TagName: "Corner A"}})
	b := mb.AddNode(&Node{Pos: geo.LatLng{Lat: 40.4410, Lng: -79.9950}})
	c := mb.AddNode(&Node{Pos: geo.LatLng{Lat: 40.4420, Lng: -79.9940}, Tags: Tags{TagAmenity: "cafe", TagName: "Bean There"}})
	if _, err := mb.AddWay(&Way{NodeIDs: []NodeID{a, b, c}, Tags: Tags{TagHighway: "residential", TagName: "Main St"}}); err != nil {
		t.Fatal(err)
	}
	mb.AddRelation(&Relation{
		Members: []Member{{Type: MemberNode, Ref: int64(a), Role: "entrance"}, {Type: MemberWay, Ref: 1, Role: "street"}},
		Tags:    Tags{"type": "street_complex"},
	})
	return mb.Build()
}

// relationByID finds a relation through the ordered walk.
func relationByID(m *Map, id RelationID) *Relation {
	var out *Relation
	m.Relations(func(r *Relation) bool {
		if r.ID == id {
			out = r
		}
		return out == nil
	})
	return out
}

func TestAddAndGet(t *testing.T) {
	m := geodeticMap(t)
	if m.NodeCount() != 3 || m.WayCount() != 1 || m.RelationCount() != 1 {
		t.Fatalf("counts: %d %d %d", m.NodeCount(), m.WayCount(), m.RelationCount())
	}
	n := m.Node(1)
	if n == nil || n.Tags.Get(TagName) != "Corner A" {
		t.Fatalf("node 1 = %+v", n)
	}
	if m.Node(99) != nil {
		t.Fatal("missing node returned non-nil")
	}
	w := m.Way(1)
	if w == nil || len(w.NodeIDs) != 3 {
		t.Fatalf("way 1 = %+v", w)
	}
	if got := len(m.WayNodes(w)); got != 3 {
		t.Fatalf("WayNodes = %d", got)
	}
	r := relationByID(m, 1)
	if r == nil || len(r.Members) != 2 {
		t.Fatalf("relation 1 = %+v", r)
	}
}

func TestIDAllocation(t *testing.T) {
	b := NewBuilder("x", Frame{})
	id1 := b.AddNode(&Node{Pos: geo.LatLng{Lat: 1, Lng: 1}})
	// Explicit high ID advances the allocator.
	b.AddNode(&Node{ID: 100, Pos: geo.LatLng{Lat: 2, Lng: 2}})
	id3 := b.AddNode(&Node{Pos: geo.LatLng{Lat: 3, Lng: 3}})
	if id1 != 1 || id3 != 101 {
		t.Fatalf("ids: %d, %d", id1, id3)
	}
}

func TestAddWayMissingNode(t *testing.T) {
	b := NewBuilder("x", Frame{})
	if _, err := b.AddWay(&Way{NodeIDs: []NodeID{42}}); err == nil {
		t.Fatal("way with missing node accepted")
	}
}

func TestIterationOrder(t *testing.T) {
	m := geodeticMap(t)
	var ids []NodeID
	m.Nodes(func(n *Node) bool {
		ids = append(ids, n.ID)
		return true
	})
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("nodes not in ID order")
		}
	}
	// Early stop.
	count := 0
	m.Nodes(func(*Node) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestBoundsGeodetic(t *testing.T) {
	m := geodeticMap(t)
	b := m.Bounds()
	if !b.Contains(geo.LatLng{Lat: 40.4410, Lng: -79.9950}) {
		t.Fatalf("bounds %v missing interior node", b)
	}
	if b.MinLat != 40.4400 || b.MaxLat != 40.4420 {
		t.Fatalf("bounds = %v", b)
	}
}

func TestLocalFramePositions(t *testing.T) {
	anchor := geo.LatLng{Lat: 40.44, Lng: -79.99}
	b := NewBuilder("store", Frame{Kind: FrameLocal, Anchor: anchor})
	id := b.AddNode(&Node{Local: geo.Point{X: 100, Y: 0}})
	m := b.Build()
	n := m.Node(id)
	pos := m.NodePosition(n)
	// 100m east of the anchor.
	if d := geo.DistanceMeters(anchor, pos); math.Abs(d-100) > 1 {
		t.Fatalf("local->geodetic distance = %v", d)
	}
	if brg := geo.InitialBearing(anchor, pos); math.Abs(brg-90) > 1 {
		t.Fatalf("bearing = %v, want ~90", brg)
	}
}

func TestLocalFrameWithBearing(t *testing.T) {
	anchor := geo.LatLng{Lat: 40.44, Lng: -79.99}
	// Local +Y axis points 90° (east): a node at local (0, 100) sits east.
	b := NewBuilder("store", Frame{Kind: FrameLocal, Anchor: anchor, AnchorBearingDeg: 90})
	id := b.AddNode(&Node{Local: geo.Point{X: 0, Y: 100}})
	m := b.Build()
	pos := m.NodePosition(m.Node(id))
	if brg := geo.InitialBearing(anchor, pos); math.Abs(brg-90) > 1 {
		t.Fatalf("bearing = %v, want ~90", brg)
	}
}

func TestLocalPositionOfGeodeticMap(t *testing.T) {
	m := geodeticMap(t)
	m.Frame.Anchor = geo.LatLng{Lat: 40.4410, Lng: -79.9950}
	n := m.Node(2) // at the anchor
	p := m.LocalPosition(n)
	if p.Norm() > 0.5 {
		t.Fatalf("anchor node local position = %v", p)
	}
}

func TestFindNodesAndPortals(t *testing.T) {
	m := geodeticMap(t).WithNode(&Node{ID: 4, Pos: geo.LatLng{Lat: 40.443, Lng: -79.993},
		Tags: Tags{TagPortalID: "door-1", TagName: "Front Door"}})
	cafes := m.FindNodes(func(n *Node) bool { return n.Tags.Get(TagAmenity) == "cafe" })
	if len(cafes) != 1 || cafes[0].Tags.Get(TagName) != "Bean There" {
		t.Fatalf("cafes = %v", cafes)
	}
	portals := m.FindNodes(func(n *Node) bool { return n.Tags.Has(TagPortalID) })
	if len(portals) != 1 || portals[0].Tags.Get(TagPortalID) != "door-1" {
		t.Fatalf("portals = %v", portals)
	}
}

func TestTags(t *testing.T) {
	tags := Tags{"a": "1", "b": "2"}
	if !tags.Has("a") || tags.Has("z") {
		t.Fatal("Has wrong")
	}
	if tags.Get("b") != "2" || tags.Get("z") != "" {
		t.Fatal("Get wrong")
	}
	cl := tags.Clone()
	cl["a"] = "changed"
	if tags.Get("a") != "1" {
		t.Fatal("Clone aliases original")
	}
	if Tags(nil).Clone() != nil {
		t.Fatal("nil clone not nil")
	}
}

func TestWayIsClosed(t *testing.T) {
	open := &Way{NodeIDs: []NodeID{1, 2, 3}}
	closed := &Way{NodeIDs: []NodeID{1, 2, 3, 1}}
	short := &Way{NodeIDs: []NodeID{1, 1}}
	if open.IsClosed() || !closed.IsClosed() || short.IsClosed() {
		t.Fatal("IsClosed wrong")
	}
}

func TestXMLRoundTripGeodetic(t *testing.T) {
	m := geodeticMap(t)
	var buf bytes.Buffer
	if err := m.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<osm") || !strings.Contains(buf.String(), "Main St") {
		t.Fatalf("unexpected XML: %s", buf.String()[:200])
	}
	got, err := ReadXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "downtown" || got.Frame.Kind != FrameGeodetic {
		t.Fatalf("header: %q %v", got.Name, got.Frame)
	}
	if got.NodeCount() != 3 || got.WayCount() != 1 || got.RelationCount() != 1 {
		t.Fatalf("counts: %d %d %d", got.NodeCount(), got.WayCount(), got.RelationCount())
	}
	n := got.Node(3)
	if n.Tags.Get(TagAmenity) != "cafe" {
		t.Fatalf("node tags lost: %v", n.Tags)
	}
	if n.Pos != (geo.LatLng{Lat: 40.4420, Lng: -79.9940}) {
		t.Fatalf("position drifted: %v", n.Pos)
	}
	w := got.Way(1)
	if len(w.NodeIDs) != 3 || w.NodeIDs[0] != 1 {
		t.Fatalf("way refs: %v", w.NodeIDs)
	}
	r := relationByID(got, 1)
	if len(r.Members) != 2 || r.Members[0].Role != "entrance" || r.Members[0].Type != MemberNode {
		t.Fatalf("relation: %+v", r)
	}
}

func TestXMLRoundTripLocalFrame(t *testing.T) {
	anchor := geo.LatLng{Lat: 40.44, Lng: -79.99}
	b := NewBuilder("grocery", Frame{Kind: FrameLocal, Anchor: anchor, AnchorBearingDeg: 15})
	b.AddNode(&Node{Local: geo.Point{X: 12.5, Y: -3.25}, Tags: Tags{TagProduct: "seaweed"}})
	m := b.Build()
	var buf bytes.Buffer
	if err := m.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Frame.Kind != FrameLocal || got.Frame.Anchor != anchor || got.Frame.AnchorBearingDeg != 15 {
		t.Fatalf("frame: %+v", got.Frame)
	}
	n := got.Node(1)
	if n.Local != (geo.Point{X: 12.5, Y: -3.25}) {
		t.Fatalf("local coords: %v", n.Local)
	}
	if n.Tags.Get(TagProduct) != "seaweed" {
		t.Fatalf("tags: %v", n.Tags)
	}
}

func TestReadXMLRejectsBadDocs(t *testing.T) {
	if _, err := ReadXML(strings.NewReader("not xml")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Way referencing a missing node.
	bad := `<?xml version="1.0"?><osm version="0.6"><way id="1"><nd ref="9"/></way></osm>`
	if _, err := ReadXML(strings.NewReader(bad)); err == nil {
		t.Fatal("dangling way accepted")
	}
	// Unknown member type.
	bad2 := `<?xml version="1.0"?><osm version="0.6"><relation id="1"><member type="alien" ref="1" role=""/></relation></osm>`
	if _, err := ReadXML(strings.NewReader(bad2)); err == nil {
		t.Fatal("alien member accepted")
	}
}

func TestGenerationMonotonic(t *testing.T) {
	if g := NewBuilder("gen", Frame{}).Build().Generation(); g != 0 {
		t.Fatalf("empty map generation = %d", g)
	}
	two := NewBuilder("gen", Frame{Kind: FrameGeodetic})
	two.AddNode(&Node{Pos: geo.LatLng{Lat: 1, Lng: 1}})
	two.AddNode(&Node{Pos: geo.LatLng{Lat: 2, Lng: 2}})
	if g := two.Build().Generation(); g != 2 {
		t.Fatalf("after 2 adds generation = %d", g)
	}

	// withWay builds two nodes and a way over them; extra mutates the
	// builder further before Build.
	withWay := func(extra func(b *Builder, w WayID)) (*Map, NodeID) {
		b := NewBuilder("gen", Frame{Kind: FrameGeodetic})
		a := b.AddNode(&Node{Pos: geo.LatLng{Lat: 1, Lng: 1}})
		c := b.AddNode(&Node{Pos: geo.LatLng{Lat: 2, Lng: 2}})
		w, err := b.AddWay(&Way{NodeIDs: []NodeID{a, c}})
		if err != nil {
			t.Fatal(err)
		}
		extra(b, w)
		return b.Build(), a
	}
	rejectWay := func(b *Builder, _ WayID) {
		if _, err := b.AddWay(&Way{NodeIDs: []NodeID{999}}); err == nil {
			t.Fatal("dangling way accepted")
		}
	}
	if m, _ := withWay(func(*Builder, WayID) {}); m.Generation() != 3 {
		t.Fatalf("after way add generation = %d", m.Generation())
	}
	// A failed mutation must not bump.
	if m, _ := withWay(rejectWay); m.Generation() != 3 {
		t.Fatalf("failed mutation bumped generation to %d", m.Generation())
	}
	m, a := withWay(func(b *Builder, w WayID) {
		rejectWay(b, w)
		b.AddRelation(&Relation{Members: []Member{{Type: MemberWay, Ref: int64(w)}}})
	})
	if g := m.Generation(); g != 4 {
		t.Fatalf("after relation generation = %d", g)
	}
	// A derived map carries its parent's generation plus one and leaves
	// the parent's alone.
	next := m.WithNode(&Node{ID: a, Pos: geo.LatLng{Lat: 1, Lng: 1}, Tags: Tags{TagName: "a"}})
	if g := next.Generation(); g != 5 {
		t.Fatalf("derived map generation = %d", g)
	}
	if g := m.Generation(); g != 4 || m.Node(a).Tags.Has(TagName) {
		t.Fatalf("WithNode wrote its parent: generation %d, node %+v", g, m.Node(a))
	}
}
