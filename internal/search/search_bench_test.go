package search

import (
	"fmt"
	"testing"

	"openflame/internal/geo"
	"openflame/internal/osm"
	"openflame/internal/store"
)

// BenchmarkSearch tracks the end-to-end query path over a mid-sized index.
// The retrieval core is pinned allocation-free per posting by the store's
// ForEachPostingMatch test; what remains here is result materialization,
// which scales with matches, not with index size.
func BenchmarkSearch(b *testing.B) {
	mb := osm.NewBuilder("bench", osm.Frame{Kind: osm.FrameGeodetic})
	for i := 0; i < 20_000; i++ {
		tags := osm.Tags{osm.TagName: fmt.Sprintf("Block %d", i)}
		if i%100 == 0 {
			tags = osm.Tags{osm.TagName: fmt.Sprintf("Bench Cafe %d", i), osm.TagAmenity: "cafe"}
		}
		mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40 + float64(i)*1e-5, Lng: -80}, Tags: tags})
	}
	m := mb.Build()
	se := New(store.New(m))
	near := geo.LatLng{Lat: 40.05, Lng: -80}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := se.Search("bench cafe", Options{Near: &near, Limit: 10})
		if len(res) != 10 {
			b.Fatalf("got %d results", len(res))
		}
	}
}
