package store

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"openflame/internal/geo"
	"openflame/internal/osm"
)

func townMap(t *testing.T) *osm.Map {
	t.Helper()
	mb := osm.NewBuilder("town", osm.Frame{Kind: osm.FrameGeodetic})
	// Street: three nodes going north along lng -79.996.
	a := mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4400, Lng: -79.9960}})
	b := mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4410, Lng: -79.9960}})
	c := mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4420, Lng: -79.9960}})
	if _, err := mb.AddWay(&osm.Way{NodeIDs: []osm.NodeID{a, b, c},
		Tags: osm.Tags{osm.TagHighway: "residential", osm.TagName: "Forbes Avenue"}}); err != nil {
		t.Fatal(err)
	}
	// POIs.
	mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4405, Lng: -79.9950},
		Tags: osm.Tags{osm.TagAmenity: "cafe", osm.TagName: "Bean There Cafe"}})
	mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4415, Lng: -79.9952},
		Tags: osm.Tags{osm.TagShop: "grocery", osm.TagName: "Corner Grocery"}})
	mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4425, Lng: -79.9948},
		Tags: osm.Tags{osm.TagAmenity: "cafe", osm.TagName: "Second Cup"}})
	return mb.Build()
}

func TestNodesInRect(t *testing.T) {
	s := New(townMap(t)).View()
	r := geo.Rect{MinLat: 40.4404, MinLng: -79.9953, MaxLat: 40.4416, MaxLng: -79.9949}
	got := s.NodesInRect(r)
	if len(got) != 2 {
		t.Fatalf("got %d nodes", len(got))
	}
}

func TestNearestNodes(t *testing.T) {
	s := New(townMap(t)).View()
	q := geo.LatLng{Lat: 40.4405, Lng: -79.9950} // at the cafe
	hits := s.NearestNodes(q, 2, 0)
	if len(hits) != 2 {
		t.Fatalf("got %d hits", len(hits))
	}
	if hits[0].Node.Tags.Get(osm.TagName) != "Bean There Cafe" {
		t.Fatalf("closest = %v", hits[0].Node.Tags)
	}
	if hits[0].DistanceMeters > 1 {
		t.Fatalf("distance = %v", hits[0].DistanceMeters)
	}
	if hits[1].DistanceMeters < hits[0].DistanceMeters {
		t.Fatal("hits not ordered")
	}
	// maxMeters filter.
	far := s.NearestNodes(q, 10, 50)
	for _, h := range far {
		if h.DistanceMeters > 50 {
			t.Fatalf("hit outside radius: %v", h.DistanceMeters)
		}
	}
}

func TestNearestNodesWhere(t *testing.T) {
	s := New(townMap(t)).View()
	q := geo.LatLng{Lat: 40.4400, Lng: -79.9960}
	cafes := s.NearestNodesWhere(q, 2, 0, func(n *osm.Node) bool {
		return n.Tags.Get(osm.TagAmenity) == "cafe"
	})
	if len(cafes) != 2 {
		t.Fatalf("got %d cafes", len(cafes))
	}
	if cafes[0].Node.Tags.Get(osm.TagName) != "Bean There Cafe" {
		t.Fatalf("closest cafe = %v", cafes[0].Node.Tags)
	}
}

func TestSnapToWay(t *testing.T) {
	s := New(townMap(t)).View()
	// 30m east of the street's midpoint.
	mid := geo.LatLng{Lat: 40.4405, Lng: -79.9960}
	q := geo.Offset(mid, 30, 90)
	snap, ok := s.SnapToWay(q, 100)
	if !ok {
		t.Fatal("no snap")
	}
	if snap.Way.Tags.Get(osm.TagName) != "Forbes Avenue" {
		t.Fatalf("snapped to %v", snap.Way.Tags)
	}
	if math.Abs(snap.DistanceMeters-30) > 2 {
		t.Fatalf("snap distance = %v", snap.DistanceMeters)
	}
	// The snapped position should be on the street's longitude.
	if math.Abs(snap.Position.Lng - -79.9960) > 1e-4 {
		t.Fatalf("snap position = %v", snap.Position)
	}
	// Too far: no snap.
	if _, ok := s.SnapToWay(geo.Offset(mid, 500, 90), 100); ok {
		t.Fatal("snapped beyond maxMeters")
	}
}

func TestSnapPicksNearerEndpoint(t *testing.T) {
	s := New(townMap(t)).View()
	// Near the north end of the street: endpoint should be node c (id 3).
	q := geo.Offset(geo.LatLng{Lat: 40.4419, Lng: -79.9960}, 5, 90)
	snap, ok := s.SnapToWay(q, 50)
	if !ok {
		t.Fatal("no snap")
	}
	if snap.NodeID != 3 {
		t.Fatalf("endpoint = %d, want 3", snap.NodeID)
	}
}

func TestTokenPostings(t *testing.T) {
	s := New(townMap(t)).View()
	cafes := s.TokenPostings("cafe")
	if len(cafes) != 2 {
		t.Fatalf("cafe postings = %v", cafes)
	}
	grocery := s.TokenPostings("grocery")
	if len(grocery) != 1 {
		t.Fatalf("grocery postings = %v", grocery)
	}
	// Case-insensitive query.
	if got := s.TokenPostings("CAFE"); len(got) != 2 {
		t.Fatalf("uppercase query = %v", got)
	}
	if got := s.TokenPostings("nonexistent"); len(got) != 0 {
		t.Fatalf("bogus token = %v", got)
	}
}

func TestUpdateNodeTagsReindexes(t *testing.T) {
	s := New(townMap(t))
	ids := s.View().TokenPostings("grocery")
	if len(ids) != 1 {
		t.Fatal("setup")
	}
	ok := s.UpdateNodeTags(ids[0], osm.Tags{osm.TagShop: "bakery", osm.TagName: "Corner Bakery"})
	if !ok {
		t.Fatal("update failed")
	}
	if got := s.View().TokenPostings("grocery"); len(got) != 0 {
		t.Fatalf("stale postings: %v", got)
	}
	if got := s.View().TokenPostings("bakery"); len(got) != 1 {
		t.Fatalf("new postings: %v", got)
	}
	if s.UpdateNodeTags(9999, nil) {
		t.Fatal("update of missing node succeeded")
	}
}

func TestBounds(t *testing.T) {
	s := New(townMap(t))
	b := s.View().Bounds()
	if !b.Contains(geo.LatLng{Lat: 40.4410, Lng: -79.9955}) {
		t.Fatalf("bounds = %v", b)
	}
	// Tag writes never move a node, so every view shares the bounds.
	s.UpdateNodeTags(4, osm.Tags{osm.TagName: "Renamed"})
	if got := s.View().Bounds(); got != b {
		t.Fatalf("bounds moved by a tag write: %v -> %v", b, got)
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Bean-There Cafe #2, 4th Ave.")
	want := []string{"bean", "there", "cafe", "2", "4th", "ave"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v", got)
	}
	if len(Tokenize("")) != 0 || len(Tokenize("!!!")) != 0 {
		t.Fatal("degenerate tokenization")
	}
}

func TestTokenizeTags(t *testing.T) {
	tags := osm.Tags{
		osm.TagName:     "Blue Bottle",
		osm.TagAmenity:  "cafe",
		osm.TagPortalID: "p-1", // structural: excluded
	}
	toks := TokenizeTags(tags)
	sort.Strings(toks)
	joined := strings0(toks)
	for _, want := range []string{"blue", "bottle", "cafe", "amenity"} {
		if !contains(toks, want) {
			t.Fatalf("missing token %q in %v", want, toks)
		}
	}
	if contains(toks, "p") || contains(toks, "1") {
		t.Fatalf("portal id leaked into tokens: %v", joined)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func strings0(xs []string) string {
	out := ""
	for _, x := range xs {
		out += x + " "
	}
	return out
}

func TestLocalFrameStore(t *testing.T) {
	anchor := geo.LatLng{Lat: 40.44, Lng: -79.99}
	mb := osm.NewBuilder("indoor", osm.Frame{Kind: osm.FrameLocal, Anchor: anchor})
	mb.AddNode(&osm.Node{Local: geo.Point{X: 10, Y: 10}, Tags: osm.Tags{osm.TagProduct: "seaweed"}})
	m := mb.Build()
	s := New(m).View()
	hits := s.NearestNodes(anchor, 1, 100)
	if len(hits) != 1 {
		t.Fatal("local node not indexed geodetically")
	}
	if hits[0].DistanceMeters > 20 {
		t.Fatalf("distance = %v", hits[0].DistanceMeters)
	}
}

func TestStoreGeneration(t *testing.T) {
	m := townMap(t)
	s := New(m)
	v0 := s.View()
	if v0.Gen == 0 || v0.Gen != m.Generation() || v0.Seq != 0 {
		t.Fatalf("boot view at gen %d seq %d, map at %d", v0.Gen, v0.Seq, m.Generation())
	}
	// A tag replacement is exactly one mutation, even though it reindexes,
	// and it moves the view's Gen and Seq together.
	for i := uint64(1); i <= 3; i++ {
		if !s.UpdateNodeTags(4, osm.Tags{osm.TagName: "Pop-Up Stand"}) {
			t.Fatal("update failed")
		}
		if v := s.View(); v.Gen != v0.Gen+i || v.Seq != i || v.Map().Generation() != v.Gen {
			t.Fatalf("after %d writes: gen %d seq %d (map %d)", i, v.Gen, v.Seq, v.Map().Generation())
		}
	}
	// Failed mutations publish nothing, and the boot map is never written.
	v := s.View()
	if s.UpdateNodeTags(99999, osm.Tags{}) || s.ApplyReplicatedTags(4, osm.Tags{}, 1) {
		t.Fatal("refused write applied")
	}
	if s.View() != v {
		t.Fatal("failed mutations published a view")
	}
	if m.Generation() != v0.Gen || m.Node(4).Tags.Get(osm.TagName) != "Bean There Cafe" {
		t.Fatal("a store write reached the boot map")
	}
}
