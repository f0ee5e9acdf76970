package geocode

import (
	"reflect"
	"testing"

	"openflame/internal/geo"
	"openflame/internal/osm"
	"openflame/internal/store"
)

func townStore(t *testing.T) *store.Store {
	t.Helper()
	mb := osm.NewBuilder("town", osm.Frame{Kind: osm.FrameGeodetic})
	a := mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4400, Lng: -79.9960}})
	b := mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4420, Lng: -79.9960}})
	if _, err := mb.AddWay(&osm.Way{NodeIDs: []osm.NodeID{a, b},
		Tags: osm.Tags{osm.TagHighway: "residential", osm.TagName: "Forbes Avenue"}}); err != nil {
		t.Fatal(err)
	}
	mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4405, Lng: -79.9950}, Tags: osm.Tags{
		osm.TagName: "Corner Grocery", osm.TagShop: "grocery",
		osm.TagAddr: "411 Forbes Avenue, Pittsburgh", osm.TagStreet: "Forbes Avenue",
		osm.TagNumber: "411", osm.TagCity: "Pittsburgh"}})
	mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4415, Lng: -79.9952}, Tags: osm.Tags{
		osm.TagName: "Bean There Cafe", osm.TagAmenity: "cafe",
		osm.TagAddr: "415 Forbes Avenue, Pittsburgh"}})
	m := mb.Build()
	return store.New(m)
}

func TestForwardExactName(t *testing.T) {
	g := New(townStore(t))
	rs := g.Forward("Corner Grocery", 5)
	if len(rs) == 0 {
		t.Fatal("no results")
	}
	if rs[0].Name != "Corner Grocery" || rs[0].Score != 1 {
		t.Fatalf("top = %+v", rs[0])
	}
}

func TestForwardFullAddress(t *testing.T) {
	g := New(townStore(t))
	rs := g.Forward("411 Forbes Avenue Pittsburgh", 5)
	if len(rs) == 0 {
		t.Fatal("no results")
	}
	if rs[0].Name != "Corner Grocery" {
		t.Fatalf("top = %+v", rs[0])
	}
	if rs[0].Score != 1 {
		t.Fatalf("score = %v", rs[0].Score)
	}
}

func TestForwardPartialMatchRanksLower(t *testing.T) {
	g := New(townStore(t))
	// "Corner Grocery" matches 2/3 tokens; the cafe matches only "cafe".
	rs := g.Forward("Corner Grocery Cafe", 5)
	if len(rs) < 2 {
		t.Fatalf("got %d results", len(rs))
	}
	if rs[0].Name != "Corner Grocery" {
		t.Fatalf("top = %+v", rs[0])
	}
	if rs[1].Score >= rs[0].Score {
		t.Fatal("ranking not descending")
	}
}

func TestForwardNoMatch(t *testing.T) {
	g := New(townStore(t))
	if rs := g.Forward("zanzibar palace", 5); len(rs) != 0 {
		t.Fatalf("unexpected results: %v", rs)
	}
	if rs := g.Forward("", 5); rs != nil {
		t.Fatalf("empty query results: %v", rs)
	}
}

func TestForwardLimit(t *testing.T) {
	g := New(townStore(t))
	rs := g.Forward("Forbes Avenue", 1)
	if len(rs) != 1 {
		t.Fatalf("limit ignored: %d results", len(rs))
	}
}

func TestReverse(t *testing.T) {
	g := New(townStore(t))
	q := geo.Offset(geo.LatLng{Lat: 40.4405, Lng: -79.9950}, 5, 0)
	r, ok := g.Reverse(q, 100)
	if !ok {
		t.Fatal("no reverse result")
	}
	if r.Name != "Corner Grocery" {
		t.Fatalf("reverse = %+v", r)
	}
	// Unnamed street nodes are not addressable.
	if _, ok := g.Reverse(geo.LatLng{Lat: 40.4400, Lng: -79.9960}, 5); ok {
		t.Fatal("unnamed node returned")
	}
	if _, ok := g.Reverse(geo.LatLng{Lat: 41, Lng: -79}, 100); ok {
		t.Fatal("far query returned result")
	}
}

func TestParseAddress(t *testing.T) {
	got := ParseAddress(" Seaweed Shelf , Corner Grocery, Pittsburgh ")
	want := []string{"Seaweed Shelf", "Corner Grocery", "Pittsburgh"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseAddress = %v", got)
	}
	if got := ParseAddress(""); len(got) != 0 {
		t.Fatalf("empty address parsed to %v", got)
	}
	if got := ParseAddress(",,"); len(got) != 0 {
		t.Fatalf("commas parsed to %v", got)
	}
}
