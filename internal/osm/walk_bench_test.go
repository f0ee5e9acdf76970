package osm

import (
	"fmt"
	"testing"

	"openflame/internal/geo"
)

func walkFixture(b testing.TB, n int) *Map {
	mb := NewBuilder("walk", Frame{Kind: FrameGeodetic})
	for i := 0; i < n; i++ {
		mb.AddNode(&Node{
			Pos:  geo.LatLng{Lat: 40 + float64(i)*1e-6, Lng: -80},
			Tags: Tags{TagName: fmt.Sprintf("POI %d", i), TagAmenity: "bench"},
		})
	}
	return mb.Build()
}

func TestNodesWalkAscending(t *testing.T) {
	// Mix in overlay entries (a replacement and an addition) so the merge
	// path is the one under test, not just the packed fast path.
	m := walkFixture(t, 3000).
		WithNode(&Node{ID: 1500, Pos: geo.LatLng{Lat: 41, Lng: -80}, Tags: Tags{TagName: "replaced"}}).
		WithNode(&Node{ID: 3001, Pos: geo.LatLng{Lat: 42, Lng: -80}})
	var prev NodeID
	count := 0
	m.Nodes(func(n *Node) bool {
		if n.ID <= prev {
			t.Fatalf("walk out of order: %d after %d", n.ID, prev)
		}
		prev = n.ID
		count++
		return true
	})
	if count != m.NodeCount() {
		t.Fatalf("walked %d nodes, NodeCount %d", count, m.NodeCount())
	}
	if got := m.Node(1500); got.Tags.Get(TagName) != "replaced" {
		t.Fatalf("overlay override lost: %+v", got)
	}
}

// BenchmarkNodesWalk pins the full-map walk to a single linear merge over
// the sorted columns — the layout invariant that replaced collecting and
// sorting the key set on every call. b.N scaling keeps it honest: ns/op
// must stay ~proportional to the node count (see also E20's explicit
// linearity check at city scale).
func BenchmarkNodesWalk(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := walkFixture(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				count := 0
				m.Nodes(func(*Node) bool {
					count++
					return true
				})
				if count != n {
					b.Fatal("short walk")
				}
			}
		})
	}
}

// BenchmarkFindNodes measures the filtered walk (search-by-predicate path).
func BenchmarkFindNodes(b *testing.B) {
	m := walkFixture(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits := m.FindNodes(func(n *Node) bool { return n.Tags.Get(TagName) == "POI 99999" })
		if len(hits) != 1 {
			b.Fatal("miss")
		}
	}
}
