// Package graph implements the routing substrate (§4): a weighted directed
// graph built from OSM ways, classic shortest-path algorithms (Dijkstra,
// bidirectional Dijkstra), and Contraction Hierarchies — the preprocessing
// technique the paper names for centralized route serving (§4.1, [11]).
package graph

import (
	"container/heap"
	"fmt"
	"math"

	"openflame/internal/geo"
	"openflame/internal/osm"
)

// halfEdge is an adjacency entry. mid >= 0 marks a CH shortcut whose middle
// node is mid.
type halfEdge struct {
	to  int32
	w   float64
	mid int32
}

// Graph is a directed weighted graph over externally-identified nodes.
// Build it with NewBuilder or FromOSM; it is immutable afterwards and safe
// for concurrent queries.
type Graph struct {
	ids   []int64
	index map[int64]int32
	pos   []geo.LatLng
	out   [][]halfEdge
	in    [][]halfEdge
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.ids) }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.out {
		n += len(es)
	}
	return n
}

// HasNode reports whether the external ID is present.
func (g *Graph) HasNode(id int64) bool {
	_, ok := g.index[id]
	return ok
}

// Position returns the coordinates of a node.
func (g *Graph) Position(id int64) (geo.LatLng, bool) {
	i, ok := g.index[id]
	if !ok {
		return geo.LatLng{}, false
	}
	return g.pos[i], true
}

// NodeIDs returns all external node IDs.
func (g *Graph) NodeIDs() []int64 {
	return append([]int64(nil), g.ids...)
}

// Builder accumulates nodes and edges for a Graph.
type Builder struct {
	g *Graph
}

// NewBuilder creates an empty graph builder.
func NewBuilder() *Builder {
	return &Builder{g: &Graph{index: make(map[int64]int32)}}
}

// AddNode registers a node with its position. Adding an existing ID updates
// the position.
func (b *Builder) AddNode(id int64, pos geo.LatLng) {
	if i, ok := b.g.index[id]; ok {
		b.g.pos[i] = pos
		return
	}
	i := int32(len(b.g.ids))
	b.g.index[id] = i
	b.g.ids = append(b.g.ids, id)
	b.g.pos = append(b.g.pos, pos)
	b.g.out = append(b.g.out, nil)
	b.g.in = append(b.g.in, nil)
}

// AddEdge adds a directed edge; both endpoints must exist.
func (b *Builder) AddEdge(from, to int64, weight float64) error {
	fi, ok := b.g.index[from]
	if !ok {
		return fmt.Errorf("graph: unknown node %d", from)
	}
	ti, ok := b.g.index[to]
	if !ok {
		return fmt.Errorf("graph: unknown node %d", to)
	}
	if weight < 0 || math.IsNaN(weight) {
		return fmt.Errorf("graph: invalid weight %v", weight)
	}
	b.g.out[fi] = append(b.g.out[fi], halfEdge{to: ti, w: weight, mid: -1})
	b.g.in[ti] = append(b.g.in[ti], halfEdge{to: fi, w: weight, mid: -1})
	return nil
}

// AddBidirectional adds edges in both directions with the same weight.
func (b *Builder) AddBidirectional(a, c int64, weight float64) error {
	if err := b.AddEdge(a, c, weight); err != nil {
		return err
	}
	return b.AddEdge(c, a, weight)
}

// Build finalizes the graph.
func (b *Builder) Build() *Graph { return b.g }

// Profile converts a way's tags into a traversal cost multiplier (seconds
// per meter); returning <= 0 excludes the way.
type Profile func(tags osm.Tags) float64

// FootProfile is a pedestrian cost model: all mapped paths walkable at
// 1.4 m/s; corridors and aisles slightly slower.
func FootProfile(tags osm.Tags) float64 {
	if tags.Has(osm.TagBuilding) {
		return -1 // building outlines are walls, not paths
	}
	hw := tags.Get(osm.TagHighway)
	if hw == "" && tags.Get(osm.TagIndoor) == "" {
		return -1
	}
	switch hw {
	case "motorway", "trunk":
		return -1 // not walkable
	case "corridor", "aisle":
		return 1.0 / 1.1
	default:
		return 1.0 / 1.4
	}
}

// DistanceProfile adapts a profile into a distance-metric weighting: ways
// the profile excludes stay excluded, everything else costs 1 unit per
// meter, so path costs are lengths (§4: routes may optimize distance
// rather than travel time).
func DistanceProfile(p Profile) Profile {
	return func(tags osm.Tags) float64 {
		if p(tags) <= 0 {
			return -1
		}
		return 1
	}
}

// FromOSM builds a routing graph from a map's ways using the profile to
// weight each segment by travel time (seconds). Node positions come from
// the map's frame-aware geodetic positions.
func FromOSM(m *osm.Map, profile Profile) *Graph {
	b := NewBuilder()
	m.Ways(func(w *osm.Way) bool {
		cost := profile(w.Tags)
		if cost <= 0 {
			return true
		}
		nodes := m.WayNodes(w)
		oneway := w.Tags.Get(osm.TagOneway) == "yes"
		for i := 1; i < len(nodes); i++ {
			a, c := nodes[i-1], nodes[i]
			pa, pc := m.NodePosition(a), m.NodePosition(c)
			b.AddNode(int64(a.ID), pa)
			b.AddNode(int64(c.ID), pc)
			wgt := geo.DistanceMeters(pa, pc) * cost
			if oneway {
				_ = b.AddEdge(int64(a.ID), int64(c.ID), wgt)
			} else {
				_ = b.AddBidirectional(int64(a.ID), int64(c.ID), wgt)
			}
		}
		return true
	})
	return b.Build()
}

// Path is a shortest-path result. Nodes are external IDs from source to
// target inclusive; Cost is the summed edge weight; Settled counts nodes
// taken off the priority queue (the work metric reported by E12).
type Path struct {
	Nodes   []int64
	Cost    float64
	Settled int
}

// ErrNoPath is returned when the target is unreachable.
var ErrNoPath = fmt.Errorf("graph: no path")

// pqItem is a priority-queue entry shared by all searches.
type pqItem struct {
	node int32
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Dijkstra computes the shortest path from src to dst by plain Dijkstra.
func (g *Graph) Dijkstra(src, dst int64) (Path, error) {
	s, ok := g.index[src]
	if !ok {
		return Path{}, fmt.Errorf("graph: unknown source %d", src)
	}
	t, ok := g.index[dst]
	if !ok {
		return Path{}, fmt.Errorf("graph: unknown target %d", dst)
	}
	dist := make([]float64, len(g.ids))
	prev := make([]int32, len(g.ids))
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[s] = 0
	q := &pq{{node: s, dist: 0}}
	settled := 0
	done := make([]bool, len(g.ids))
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		settled++
		if u == t {
			return Path{Nodes: g.walkPrev(prev, s, t), Cost: dist[t], Settled: settled}, nil
		}
		for _, e := range g.out[u] {
			if nd := it.dist + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				prev[e.to] = u
				heap.Push(q, pqItem{node: e.to, dist: nd})
			}
		}
	}
	return Path{Settled: settled}, ErrNoPath
}

// BiDijkstra computes the shortest path with bidirectional Dijkstra.
func (g *Graph) BiDijkstra(src, dst int64) (Path, error) {
	s, ok := g.index[src]
	if !ok {
		return Path{}, fmt.Errorf("graph: unknown source %d", src)
	}
	t, ok := g.index[dst]
	if !ok {
		return Path{}, fmt.Errorf("graph: unknown target %d", dst)
	}
	if s == t {
		return Path{Nodes: []int64{src}, Cost: 0, Settled: 1}, nil
	}
	n := len(g.ids)
	distF := make([]float64, n)
	distB := make([]float64, n)
	prevF := make([]int32, n)
	prevB := make([]int32, n)
	doneF := make([]bool, n)
	doneB := make([]bool, n)
	for i := 0; i < n; i++ {
		distF[i], distB[i] = math.Inf(1), math.Inf(1)
		prevF[i], prevB[i] = -1, -1
	}
	distF[s], distB[t] = 0, 0
	qf := &pq{{node: s}}
	qb := &pq{{node: t}}
	best := math.Inf(1)
	meet := int32(-1)
	settled := 0
	for qf.Len() > 0 || qb.Len() > 0 {
		// Terminate when the sum of the two frontiers exceeds the best
		// connection found.
		topF, topB := math.Inf(1), math.Inf(1)
		if qf.Len() > 0 {
			topF = (*qf)[0].dist
		}
		if qb.Len() > 0 {
			topB = (*qb)[0].dist
		}
		if topF+topB >= best {
			break
		}
		// Expand the smaller frontier.
		if topF <= topB {
			it := heap.Pop(qf).(pqItem)
			u := it.node
			if doneF[u] {
				continue
			}
			doneF[u] = true
			settled++
			for _, e := range g.out[u] {
				if nd := distF[u] + e.w; nd < distF[e.to] {
					distF[e.to] = nd
					prevF[e.to] = u
					heap.Push(qf, pqItem{node: e.to, dist: nd})
				}
			}
			if !math.IsInf(distB[u], 1) {
				if c := distF[u] + distB[u]; c < best {
					best, meet = c, u
				}
			}
		} else {
			it := heap.Pop(qb).(pqItem)
			u := it.node
			if doneB[u] {
				continue
			}
			doneB[u] = true
			settled++
			for _, e := range g.in[u] {
				if nd := distB[u] + e.w; nd < distB[e.to] {
					distB[e.to] = nd
					prevB[e.to] = u
					heap.Push(qb, pqItem{node: e.to, dist: nd})
				}
			}
			if !math.IsInf(distF[u], 1) {
				if c := distF[u] + distB[u]; c < best {
					best, meet = c, u
				}
			}
		}
	}
	if meet < 0 {
		return Path{Settled: settled}, ErrNoPath
	}
	fwd := g.walkPrev(prevF, s, meet)
	bwd := g.walkPrev(prevB, t, meet)
	// bwd is meet..t reversed; append skipping the repeated meet node.
	nodes := make([]int64, 0, len(fwd)+len(bwd)-1)
	nodes = append(nodes, fwd...)
	for i := len(bwd) - 2; i >= 0; i-- {
		nodes = append(nodes, bwd[i])
	}
	return Path{Nodes: nodes, Cost: best, Settled: settled}, nil
}

// walkPrev reconstructs the path s..t, as external IDs, from a predecessor
// array rooted at s.
func (g *Graph) walkPrev(prev []int32, s, t int32) []int64 {
	var rev []int64
	for u := t; u != -1; u = prev[u] {
		rev = append(rev, g.ids[u])
		if u == s {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Nearest returns the graph node closest to ll (linear scan; the map store
// provides indexed snapping for service use).
func (g *Graph) Nearest(ll geo.LatLng) (int64, float64) {
	bestID := int64(-1)
	best := math.Inf(1)
	for i, p := range g.pos {
		if d := geo.DistanceMeters(ll, p); d < best {
			best = d
			bestID = g.ids[i]
		}
	}
	return bestID, best
}
