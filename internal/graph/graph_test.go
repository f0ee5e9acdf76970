package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"openflame/internal/geo"
	"openflame/internal/osm"
)

// gridGraph builds an n x n grid with the given edge weight chooser; node
// ID = row*n + col, positions laid out ~100m apart near Pittsburgh.
func gridGraph(n int, weight func(rng *rand.Rand) float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	origin := geo.LatLng{Lat: 40.44, Lng: -79.99}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			pos := geo.Offset(geo.Offset(origin, float64(r)*100, 0), float64(c)*100, 90)
			b.AddNode(int64(r*n+c), pos)
		}
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			id := int64(r*n + c)
			if c+1 < n {
				if err := b.AddBidirectional(id, id+1, weight(rng)); err != nil {
					panic(err)
				}
			}
			if r+1 < n {
				if err := b.AddBidirectional(id, id+int64(n), weight(rng)); err != nil {
					panic(err)
				}
			}
		}
	}
	return b.Build()
}

func unitWeight(*rand.Rand) float64 { return 100 }

func randWeight(rng *rand.Rand) float64 { return 50 + rng.Float64()*200 }

// edgeWeight returns the cheapest original edge weight from a to b, or NaN.
func edgeWeight(g *Graph, a, b int64) float64 {
	ai := g.index[a]
	bi := g.index[b]
	best := math.NaN()
	for _, e := range g.out[ai] {
		if e.to == bi && e.mid < 0 {
			if math.IsNaN(best) || e.w < best {
				best = e.w
			}
		}
	}
	return best
}

// verifyPath checks the path exists in g and its edge weights sum to cost.
func verifyPath(t *testing.T, g *Graph, p Path) {
	t.Helper()
	if len(p.Nodes) < 1 {
		t.Fatal("empty path")
	}
	var sum float64
	for i := 1; i < len(p.Nodes); i++ {
		w := edgeWeight(g, p.Nodes[i-1], p.Nodes[i])
		if math.IsNaN(w) {
			t.Fatalf("path hop %d: no edge %d->%d", i, p.Nodes[i-1], p.Nodes[i])
		}
		sum += w
	}
	if math.Abs(sum-p.Cost) > 1e-6*(1+p.Cost) {
		t.Fatalf("path weight sum %v != reported cost %v", sum, p.Cost)
	}
}

func TestDijkstraLine(t *testing.T) {
	b := NewBuilder()
	for i := int64(0); i < 5; i++ {
		b.AddNode(i, geo.LatLng{Lat: float64(i) * 0.001, Lng: 0})
	}
	for i := int64(0); i < 4; i++ {
		if err := b.AddBidirectional(i, i+1, 10); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	p, err := g.Dijkstra(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost != 40 || len(p.Nodes) != 5 {
		t.Fatalf("path = %+v", p)
	}
	if p.Nodes[0] != 0 || p.Nodes[4] != 4 {
		t.Fatalf("endpoints: %v", p.Nodes)
	}
}

func TestDijkstraPicksCheaperDetour(t *testing.T) {
	// 0-1 expensive direct, 0-2-1 cheap detour.
	b := NewBuilder()
	for i := int64(0); i < 3; i++ {
		b.AddNode(i, geo.LatLng{Lat: float64(i) * 0.001, Lng: 0})
	}
	if err := b.AddEdge(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 2, 10); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 1, 10); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	p, err := g.Dijkstra(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost != 20 || len(p.Nodes) != 3 || p.Nodes[1] != 2 {
		t.Fatalf("path = %+v", p)
	}
}

func TestNoPath(t *testing.T) {
	b := NewBuilder()
	b.AddNode(1, geo.LatLng{})
	b.AddNode(2, geo.LatLng{Lat: 1})
	g := b.Build()
	if _, err := g.Dijkstra(1, 2); !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v", err)
	}
	if _, err := g.BiDijkstra(1, 2); !errors.Is(err, ErrNoPath) {
		t.Fatalf("bidi err = %v", err)
	}
	ch := BuildCH(g)
	if _, err := ch.Query(1, 2); !errors.Is(err, ErrNoPath) {
		t.Fatalf("ch err = %v", err)
	}
}

func TestUnknownNodes(t *testing.T) {
	g := NewBuilder().Build()
	if _, err := g.Dijkstra(1, 2); err == nil {
		t.Fatal("unknown nodes accepted")
	}
}

func TestOnewayRespected(t *testing.T) {
	b := NewBuilder()
	b.AddNode(1, geo.LatLng{})
	b.AddNode(2, geo.LatLng{Lat: 0.001})
	if err := b.AddEdge(1, 2, 5); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if _, err := g.Dijkstra(1, 2); err != nil {
		t.Fatal("forward failed")
	}
	if _, err := g.Dijkstra(2, 1); !errors.Is(err, ErrNoPath) {
		t.Fatal("reverse should fail")
	}
}

func TestSameSourceTarget(t *testing.T) {
	g := gridGraph(3, unitWeight, 1)
	for _, f := range []func(int64, int64) (Path, error){g.Dijkstra, g.BiDijkstra} {
		p, err := f(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		if p.Cost != 0 || len(p.Nodes) != 1 {
			t.Fatalf("self path = %+v", p)
		}
	}
	ch := BuildCH(g)
	p, err := ch.Query(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost != 0 {
		t.Fatalf("ch self cost = %v", p.Cost)
	}
}

func TestAllAlgorithmsAgreeOnGrid(t *testing.T) {
	const n = 12
	g := gridGraph(n, randWeight, 99)
	ch := BuildCH(g)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		src := int64(rng.Intn(n * n))
		dst := int64(rng.Intn(n * n))
		pd, err := g.Dijkstra(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := g.BiDijkstra(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := ch.Query(src, dst)
		if err != nil {
			t.Fatalf("ch %d->%d: %v", src, dst, err)
		}
		for name, p := range map[string]Path{"bidi": pb, "ch": pc} {
			if math.Abs(p.Cost-pd.Cost) > 1e-6*(1+pd.Cost) {
				t.Fatalf("trial %d %s cost %v != dijkstra %v (%d->%d)", trial, name, p.Cost, pd.Cost, src, dst)
			}
		}
		verifyPath(t, g, pd)
		verifyPath(t, g, pb)
		verifyPath(t, g, pc)
	}
}

func TestCHSettlesFewerNodes(t *testing.T) {
	const n = 20
	g := gridGraph(n, randWeight, 5)
	ch := BuildCH(g)
	rng := rand.New(rand.NewSource(8))
	var dijkstraTotal, chTotal int
	for trial := 0; trial < 20; trial++ {
		src := int64(rng.Intn(n * n))
		dst := int64(rng.Intn(n * n))
		pd, err := g.Dijkstra(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := ch.Query(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		dijkstraTotal += pd.Settled
		chTotal += pc.Settled
	}
	if chTotal >= dijkstraTotal {
		t.Fatalf("CH settled %d vs dijkstra %d — no speedup", chTotal, dijkstraTotal)
	}
}

func TestCHOnDirectedGraph(t *testing.T) {
	// Ring with one-way edges: 0→1→2→3→0.
	b := NewBuilder()
	for i := int64(0); i < 4; i++ {
		b.AddNode(i, geo.LatLng{Lat: float64(i) * 0.001})
	}
	for i := int64(0); i < 4; i++ {
		if err := b.AddEdge(i, (i+1)%4, 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	ch := BuildCH(g)
	p, err := ch.Query(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost != 2 {
		t.Fatalf("cost = %v, want 2 (3→0→1)", p.Cost)
	}
	verifyPath(t, g, p)
}

func TestFromOSMFootProfile(t *testing.T) {
	mb := osm.NewBuilder("town", osm.Frame{Kind: osm.FrameGeodetic})
	a := mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4400, Lng: -79.9960}})
	bb := mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4410, Lng: -79.9960}})
	c := mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4420, Lng: -79.9960}})
	if _, err := mb.AddWay(&osm.Way{NodeIDs: []osm.NodeID{a, bb, c},
		Tags: osm.Tags{osm.TagHighway: "residential"}}); err != nil {
		t.Fatal(err)
	}
	// A motorway should be excluded for pedestrians.
	d := mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4430, Lng: -79.9960}})
	if _, err := mb.AddWay(&osm.Way{NodeIDs: []osm.NodeID{c, d},
		Tags: osm.Tags{osm.TagHighway: "motorway"}}); err != nil {
		t.Fatal(err)
	}
	m := mb.Build()
	g := FromOSM(m, FootProfile)
	if !g.HasNode(int64(a)) || !g.HasNode(int64(c)) {
		t.Fatal("walkable nodes missing")
	}
	p, err := g.Dijkstra(int64(a), int64(c))
	if err != nil {
		t.Fatal(err)
	}
	// ~222m at 1.4m/s ≈ 159s.
	if p.Cost < 140 || p.Cost > 180 {
		t.Fatalf("cost = %v", p.Cost)
	}
	// The motorway is excluded entirely, so its nodes are absent.
	if g.HasNode(int64(d)) {
		t.Fatal("motorway node present in foot graph")
	}
	if _, err := g.Dijkstra(int64(a), int64(d)); err == nil {
		t.Fatal("motorway traversed on foot")
	}
}

func TestFromOSMOneway(t *testing.T) {
	mb := osm.NewBuilder("town", osm.Frame{Kind: osm.FrameGeodetic})
	a := mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4400, Lng: -79.9960}})
	bb := mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4410, Lng: -79.9960}})
	if _, err := mb.AddWay(&osm.Way{NodeIDs: []osm.NodeID{a, bb},
		Tags: osm.Tags{osm.TagHighway: "residential", osm.TagOneway: "yes"}}); err != nil {
		t.Fatal(err)
	}
	m := mb.Build()
	g := FromOSM(m, FootProfile)
	if _, err := g.Dijkstra(int64(a), int64(bb)); err != nil {
		t.Fatal("forward blocked")
	}
	if _, err := g.Dijkstra(int64(bb), int64(a)); !errors.Is(err, ErrNoPath) {
		t.Fatal("oneway violated")
	}
}

func TestNearestAndPathLength(t *testing.T) {
	g := gridGraph(5, unitWeight, 2)
	origin := geo.LatLng{Lat: 40.44, Lng: -79.99}
	id, d := g.Nearest(origin)
	if id != 0 || d > 1 {
		t.Fatalf("Nearest = %d (%v m)", id, d)
	}
	p, err := g.Dijkstra(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 5 || p.Cost != 400 {
		t.Fatalf("path %v (cost %v), want the 5-node row", p.Nodes, p.Cost)
	}
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder()
	b.AddNode(1, geo.LatLng{})
	if err := b.AddEdge(1, 99, 1); err == nil {
		t.Fatal("edge to unknown node accepted")
	}
	if err := b.AddEdge(99, 1, 1); err == nil {
		t.Fatal("edge from unknown node accepted")
	}
	b.AddNode(2, geo.LatLng{Lat: 1})
	if err := b.AddEdge(1, 2, -5); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := b.AddEdge(1, 2, math.NaN()); err == nil {
		t.Fatal("NaN weight accepted")
	}
}

func TestGraphCounts(t *testing.T) {
	g := gridGraph(4, unitWeight, 1)
	if g.NumNodes() != 16 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// 4x4 grid: 2*4*3 undirected edges = 48 directed.
	if g.NumEdges() != 48 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	ids := g.NodeIDs()
	if len(ids) != 16 {
		t.Fatalf("ids = %d", len(ids))
	}
}

func TestCHShortcutCountReported(t *testing.T) {
	g := gridGraph(8, randWeight, 4)
	ch := BuildCH(g)
	if ch.ShortcutCount <= 0 {
		t.Fatal("no shortcuts added on 8x8 grid")
	}
}

func BenchmarkDijkstraGrid30(b *testing.B)   { benchAlgo(b, "dijkstra") }
func BenchmarkBiDijkstraGrid30(b *testing.B) { benchAlgo(b, "bidi") }
func BenchmarkCHGrid30(b *testing.B)         { benchAlgo(b, "ch") }

func benchAlgo(b *testing.B, algo string) {
	const n = 30
	g := gridGraph(n, randWeight, 77)
	var ch *CH
	if algo == "ch" {
		ch = BuildCH(g)
	}
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int64, 64)
	for i := range pairs {
		pairs[i] = [2]int64{int64(rng.Intn(n * n)), int64(rng.Intn(n * n))}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		var err error
		switch algo {
		case "dijkstra":
			_, err = g.Dijkstra(p[0], p[1])
		case "bidi":
			_, err = g.BiDijkstra(p[0], p[1])
		case "ch":
			_, err = ch.Query(p[0], p[1])
		}
		if err != nil && !errors.Is(err, ErrNoPath) {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildCHGrid20(b *testing.B) {
	g := gridGraph(20, randWeight, 77)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildCH(g)
	}
}

func ExampleGraph_Dijkstra() {
	b := NewBuilder()
	b.AddNode(1, geo.LatLng{Lat: 40.4400, Lng: -79.9960})
	b.AddNode(2, geo.LatLng{Lat: 40.4410, Lng: -79.9950})
	if err := b.AddBidirectional(1, 2, 30); err != nil {
		panic(err)
	}
	g := b.Build()
	p, _ := g.Dijkstra(1, 2)
	fmt.Println(p.Nodes, p.Cost)
	// Output: [1 2] 30
}

func TestDistanceProfile(t *testing.T) {
	dp := DistanceProfile(FootProfile)
	if dp(osm.Tags{osm.TagHighway: "motorway"}) > 0 {
		t.Fatal("excluded way passed through")
	}
	if got := dp(osm.Tags{osm.TagHighway: "residential"}); got != 1 {
		t.Fatalf("distance weight = %v, want 1", got)
	}
	if got := dp(osm.Tags{osm.TagHighway: "aisle", osm.TagIndoor: "yes"}); got != 1 {
		t.Fatalf("aisle distance weight = %v, want 1", got)
	}
}
