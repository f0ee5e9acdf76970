package store

import (
	"fmt"
	"sort"
	"testing"

	"openflame/internal/geo"
	"openflame/internal/osm"
)

func TestForEachPostingMatchMerge(t *testing.T) {
	s := New(townMap(t)).View()
	type hit struct {
		id osm.NodeID
		c  int
	}
	var got []hit
	// "cafe bean": "cafe" matches both cafes (value + amenity key), "bean"
	// only Bean There.
	s.ForEachPostingMatch([]string{"cafe", "bean"}, func(id osm.NodeID, c int) {
		got = append(got, hit{id, c})
	})
	if len(got) != 2 {
		t.Fatalf("matches: %+v", got)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].id < got[j].id }) {
		t.Fatalf("merge not in ID order: %+v", got)
	}
	byID := map[osm.NodeID]int{}
	for _, h := range got {
		byID[h.id] = h.c
	}
	if byID[4] != 2 { // Bean There Cafe: both tokens
		t.Fatalf("bean there hits = %d, want 2 (%+v)", byID[4], got)
	}
	if byID[6] != 1 { // Second Cup: cafe only (amenity key)
		t.Fatalf("second cup hits = %d, want 1 (%+v)", byID[6], got)
	}
	// Unknown tokens contribute nothing and don't disturb the merge.
	got = nil
	s.ForEachPostingMatch([]string{"zzz", "grocery"}, func(id osm.NodeID, c int) {
		got = append(got, hit{id, c})
	})
	if len(got) != 1 || got[0].c != 1 {
		t.Fatalf("unknown-token merge: %+v", got)
	}
}

func TestTokenPostingsSorted(t *testing.T) {
	mb := osm.NewBuilder("sorted", osm.Frame{Kind: osm.FrameGeodetic})
	// Insert with descending positions in space but ascending IDs; then
	// update a middle node so the copy-on-write insert path runs too.
	for i := 0; i < 50; i++ {
		mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40, Lng: -80 + float64(i)*1e-4},
			Tags: osm.Tags{osm.TagName: "alpha"}})
	}
	m := mb.Build()
	s := New(m)
	if !s.UpdateNodeTags(25, osm.Tags{osm.TagName: "beta"}) {
		t.Fatal("update failed")
	}
	if !s.UpdateNodeTags(25, osm.Tags{osm.TagName: "alpha"}) {
		t.Fatal("update failed")
	}
	lst := s.View().TokenPostings("alpha")
	if len(lst) != 50 {
		t.Fatalf("postings: %d", len(lst))
	}
	if !sort.SliceIsSorted(lst, func(i, j int) bool { return lst[i] < lst[j] }) {
		t.Fatalf("posting list unsorted after reinsert: %v", lst)
	}
}

// TestForEachPostingMatchAllocsPin is the allocs/op guard for the
// postings-retrieval core (the analogue of the CH QueryCost pin): the
// merge must touch the shared sorted lists in place — one slice header
// vector and one cursor vector per call, nothing per posting. The old
// implementation allocated and rehashed a map[NodeID]int per query.
func TestForEachPostingMatchAllocsPin(t *testing.T) {
	mb := osm.NewBuilder("pin", osm.Frame{Kind: osm.FrameGeodetic})
	for i := 0; i < 2000; i++ {
		name := fmt.Sprintf("Node %d alpha", i)
		if i%2 == 0 {
			name += " beta"
		}
		mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40 + float64(i)*1e-5, Lng: -80},
			Tags: osm.Tags{osm.TagName: name}})
	}
	m := mb.Build()
	s := New(m).View()
	tokens := []string{"alpha", "beta"}
	count := 0
	got := testing.AllocsPerRun(100, func() {
		s.ForEachPostingMatch(tokens, func(id osm.NodeID, c int) { count++ })
	})
	if got > 2 {
		t.Fatalf("ForEachPostingMatch allocs/op = %v, want <= 2", got)
	}
	if count == 0 {
		t.Fatal("merge produced no matches")
	}
}

func BenchmarkForEachPostingMatch(b *testing.B) {
	mb := osm.NewBuilder("bench", osm.Frame{Kind: osm.FrameGeodetic})
	for i := 0; i < 10_000; i++ {
		name := fmt.Sprintf("Node %d alpha", i)
		if i%3 == 0 {
			name += " beta"
		}
		mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40 + float64(i)*1e-5, Lng: -80},
			Tags: osm.Tags{osm.TagName: name}})
	}
	m := mb.Build()
	s := New(m).View()
	tokens := []string{"alpha", "beta"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.ForEachPostingMatch(tokens, func(id osm.NodeID, c int) { n++ })
		if n == 0 {
			b.Fatal("no matches")
		}
	}
}
