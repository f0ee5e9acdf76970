package search

import (
	"testing"

	"openflame/internal/geo"
	"openflame/internal/osm"
	"openflame/internal/store"
)

func cafeStore(t *testing.T) *store.Store {
	t.Helper()
	mb := osm.NewBuilder("town", osm.Frame{Kind: osm.FrameGeodetic})
	add := func(lat, lng float64, tags osm.Tags) {
		mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: lat, Lng: lng}, Tags: tags})
	}
	add(40.4405, -79.9950, osm.Tags{osm.TagName: "Bean There Cafe", osm.TagAmenity: "cafe"})
	add(40.4425, -79.9948, osm.Tags{osm.TagName: "Second Cup Cafe", osm.TagAmenity: "cafe"})
	add(40.4600, -79.9700, osm.Tags{osm.TagName: "Far Away Cafe", osm.TagAmenity: "cafe"})
	add(40.4410, -79.9952, osm.Tags{osm.TagName: "Corner Grocery", osm.TagShop: "grocery"})
	add(40.4411, -79.9953, osm.Tags{osm.TagName: "Seaweed Shelf", osm.TagProduct: "roasted seaweed"})
	m := mb.Build()
	return store.New(m)
}

func TestSearchRanksByProximity(t *testing.T) {
	se := New(cafeStore(t))
	near := geo.LatLng{Lat: 40.4405, Lng: -79.9950}
	rs := se.Search("cafe", Options{Near: &near})
	if len(rs) != 3 {
		t.Fatalf("got %d results", len(rs))
	}
	if rs[0].Name != "Bean There Cafe" {
		t.Fatalf("top = %v", rs[0].Name)
	}
	if rs[2].Name != "Far Away Cafe" {
		t.Fatalf("bottom = %v", rs[2].Name)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Score > rs[i-1].Score {
			t.Fatal("scores not descending")
		}
	}
}

func TestSearchMaxDistance(t *testing.T) {
	se := New(cafeStore(t))
	near := geo.LatLng{Lat: 40.4405, Lng: -79.9950}
	rs := se.Search("cafe", Options{Near: &near, MaxDistanceMeters: 1000})
	if len(rs) != 2 {
		t.Fatalf("got %d results within 1km", len(rs))
	}
	for _, r := range rs {
		if r.DistanceMeters > 1000 {
			t.Fatalf("result outside cap: %v", r.DistanceMeters)
		}
	}
}

func TestSearchWithoutLocation(t *testing.T) {
	se := New(cafeStore(t))
	rs := se.Search("cafe", Options{})
	if len(rs) != 3 {
		t.Fatalf("got %d results", len(rs))
	}
	for _, r := range rs {
		if r.DistanceMeters != 0 {
			t.Fatal("distance set without location")
		}
		if r.Score != r.TextScore {
			t.Fatal("score should equal text score without location")
		}
	}
}

func TestSearchByProductTag(t *testing.T) {
	se := New(cafeStore(t))
	rs := se.Search("seaweed", Options{})
	if len(rs) != 1 || rs[0].Name != "Seaweed Shelf" {
		t.Fatalf("results = %v", rs)
	}
}

func TestSearchRequireAllTokens(t *testing.T) {
	se := New(cafeStore(t))
	loose := se.Search("bean cup", Options{})
	if len(loose) != 2 {
		t.Fatalf("loose results = %d", len(loose))
	}
	strict := se.Search("bean cup", Options{RequireAllTokens: true})
	if len(strict) != 0 {
		t.Fatalf("strict results = %v", strict)
	}
}

func TestSearchLimit(t *testing.T) {
	se := New(cafeStore(t))
	rs := se.Search("cafe", Options{Limit: 1})
	if len(rs) != 1 {
		t.Fatalf("limit ignored: %d", len(rs))
	}
}

func TestSearchEmptyQuery(t *testing.T) {
	se := New(cafeStore(t))
	if rs := se.Search("", Options{}); rs != nil {
		t.Fatalf("empty query returned %v", rs)
	}
}

func TestCombinedScoreDecay(t *testing.T) {
	near := CombinedScore(1, 0, true)
	mid := CombinedScore(1, 500, true)
	far := CombinedScore(1, 5000, true)
	if !(near > mid && mid > far) {
		t.Fatalf("decay not monotone: %v %v %v", near, mid, far)
	}
	if CombinedScore(0.5, 100, false) != 0.5 {
		t.Fatal("no-location score should be text score")
	}
	// Far results never hit zero (text still counts).
	if far <= 0.1 {
		t.Fatalf("far score floor broken: %v", far)
	}
}

func TestMergeDeduplicates(t *testing.T) {
	pos := geo.LatLng{Lat: 40.44, Lng: -79.99}
	a := []Result{{Name: "Corner Grocery", Position: pos, Score: 0.9, Source: "google"}}
	b := []Result{
		{Name: "Corner Grocery", Position: geo.Offset(pos, 3, 0), Score: 0.95, Source: "store"},
		{Name: "Other Shop", Position: geo.Offset(pos, 100, 90), Score: 0.5, Source: "store"},
	}
	merged := Merge([][]Result{a, b}, 10)
	if len(merged) != 2 {
		t.Fatalf("merged = %v", merged)
	}
	// The higher-scoring duplicate wins.
	if merged[0].Source != "store" || merged[0].Score != 0.95 {
		t.Fatalf("top = %+v", merged[0])
	}
}

func TestMergeKeepsDistinctSameName(t *testing.T) {
	// Two branches of a chain 1km apart are distinct results.
	a := []Result{{Name: "Chain Cafe", Position: geo.LatLng{Lat: 40.44, Lng: -79.99}, Score: 0.9}}
	b := []Result{{Name: "Chain Cafe", Position: geo.LatLng{Lat: 40.45, Lng: -79.99}, Score: 0.8}}
	merged := Merge([][]Result{a, b}, 10)
	if len(merged) != 2 {
		t.Fatalf("merged = %v", merged)
	}
}

func TestMergeLimit(t *testing.T) {
	var lists [][]Result
	for i := 0; i < 5; i++ {
		lists = append(lists, []Result{{
			Name:     "r" + string(rune('a'+i)),
			Position: geo.LatLng{Lat: 40 + float64(i)*0.01, Lng: -80},
			Score:    float64(i),
		}})
	}
	merged := Merge(lists, 3)
	if len(merged) != 3 {
		t.Fatalf("limit ignored: %d", len(merged))
	}
	if merged[0].Score != 4 {
		t.Fatalf("top = %+v", merged[0])
	}
}

func TestSortResultsDeterministic(t *testing.T) {
	rs := []Result{
		{Name: "b", NodeID: 2, Score: 1},
		{Name: "a", NodeID: 1, Score: 1},
	}
	SortResults(rs)
	if rs[0].Name != "a" {
		t.Fatal("tie-break by name failed")
	}
}

func TestResultKey(t *testing.T) {
	r := Result{Name: "x", Position: geo.LatLng{Lat: 40.123456, Lng: -80.1}}
	if r.Key() == "" {
		t.Fatal("empty key")
	}
}
