// Package rtree implements the spatial index behind the map store's
// reverse-geocode, nearest-neighbour, snap and viewport queries: a static
// STR bulk-loaded R-tree over packed parallel arrays, which a serving store
// holds and snapshot v2 persists.
package rtree

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"openflame/internal/geo"
)

// Static is an immutable R-tree bulk-loaded with STR (Sort-Tile-Recursive)
// into packed parallel arrays: per-item bound columns, per-tree-node bound
// columns across all levels, and int32 child ranges. There are no node
// objects and no pointers — traversal walks column indexes iteratively, so
// a query touches a handful of contiguous cache lines per level, and the
// whole structure serializes as flat sections (snapshot v2 persists it and
// re-attaches the columns zero-copy from an mmap).
//
// Levels are stored leaves-first: tree nodes [LevelOff[l], LevelOff[l+1])
// form level l, level 0 being the leaves and the last level the single
// root. A leaf's child range indexes the item columns; an upper node's
// child range indexes the tree-node columns one level down. Children are
// always contiguous because the STR order is fixed once at the item level
// and every level groups consecutive runs of staticFanout children.
type Static[T comparable] struct {
	lay   StaticLayout
	items []T
	root  int32 // global tree-node index of the root; -1 when empty
}

// StaticLayout is the column set of a Static tree, exposed for
// serialization (snapshot v2) and reconstruction (StaticFromLayout). For
// point-item trees the ItemMax columns alias the ItemMin columns — same
// backing array, half the bytes persisted.
type StaticLayout struct {
	// Per item, in STR order (parallel to the payload column).
	ItemMinLat, ItemMinLng, ItemMaxLat, ItemMaxLng []float64
	// Per tree node, all levels concatenated leaves-first.
	NodeMinLat, NodeMinLng, NodeMaxLat, NodeMaxLng []float64
	// Child ranges [ChildLo[i], ChildHi[i]): item indexes for leaves,
	// global tree-node indexes for upper levels.
	ChildLo, ChildHi []int32
	// LevelOff[l] is the first tree node of level l; len = height+1.
	LevelOff []int32
}

// PointItems reports whether the item Max columns alias the Min columns
// (every item is a point), letting a serializer skip the Max columns.
func (l *StaticLayout) PointItems() bool {
	return len(l.ItemMinLat) > 0 &&
		&l.ItemMaxLat[0] == &l.ItemMinLat[0] && &l.ItemMaxLng[0] == &l.ItemMinLng[0]
}

// staticFanout is the packing width: every tree node holds up to this many
// children. 16 children = four 128-byte bound columns per node visit.
const staticFanout = 16

// Entry is one item for BulkLoad.
type Entry[T comparable] struct {
	Bound geo.Rect
	Item  T
}

// BulkLoad builds a Static tree over ents with Sort-Tile-Recursive
// packing: items are sorted into vertical slices by center longitude, each
// slice sorted by center latitude, then packed into full leaves in that
// order; upper levels group consecutive runs. The build is deterministic
// (ties broken by input position), so identical input yields identical
// columns — and identical snapshot bytes. ents is not retained.
func BulkLoad[T comparable](ents []Entry[T]) *Static[T] {
	n := len(ents)
	s := &Static[T]{root: -1}
	s.lay.LevelOff = []int32{0}
	if n == 0 {
		return s
	}

	// STR order at the item level, computed on a permutation.
	cx := make([]float64, n)
	cy := make([]float64, n)
	perm := make([]int32, n)
	points := true
	for i, e := range ents {
		cx[i] = (e.Bound.MinLng + e.Bound.MaxLng) / 2
		cy[i] = (e.Bound.MinLat + e.Bound.MaxLat) / 2
		perm[i] = int32(i)
		if e.Bound.MinLat != e.Bound.MaxLat || e.Bound.MinLng != e.Bound.MaxLng {
			points = false
		}
	}
	sort.Slice(perm, func(a, b int) bool {
		i, j := perm[a], perm[b]
		if cx[i] != cx[j] {
			return cx[i] < cx[j]
		}
		if cy[i] != cy[j] {
			return cy[i] < cy[j]
		}
		return i < j
	})
	leaves := (n + staticFanout - 1) / staticFanout
	slices := int(math.Ceil(math.Sqrt(float64(leaves))))
	run := slices * staticFanout // items per vertical slice
	for lo := 0; lo < n; lo += run {
		hi := lo + run
		if hi > n {
			hi = n
		}
		part := perm[lo:hi]
		sort.Slice(part, func(a, b int) bool {
			i, j := part[a], part[b]
			if cy[i] != cy[j] {
				return cy[i] < cy[j]
			}
			if cx[i] != cx[j] {
				return cx[i] < cx[j]
			}
			return i < j
		})
	}

	// Materialize the item columns in STR order.
	lay := &s.lay
	s.items = make([]T, n)
	lay.ItemMinLat = make([]float64, n)
	lay.ItemMinLng = make([]float64, n)
	if points {
		lay.ItemMaxLat = lay.ItemMinLat
		lay.ItemMaxLng = lay.ItemMinLng
	} else {
		lay.ItemMaxLat = make([]float64, n)
		lay.ItemMaxLng = make([]float64, n)
	}
	for i, p := range perm {
		e := &ents[p]
		s.items[i] = e.Item
		lay.ItemMinLat[i] = e.Bound.MinLat
		lay.ItemMinLng[i] = e.Bound.MinLng
		if !points {
			lay.ItemMaxLat[i] = e.Bound.MaxLat
			lay.ItemMaxLng[i] = e.Bound.MaxLng
		}
	}

	// Build levels bottom-up by consecutive grouping.
	childStart, childCnt := 0, n
	isItems := true
	for {
		groups := (childCnt + staticFanout - 1) / staticFanout
		levelStart := len(lay.ChildLo)
		for g := 0; g < groups; g++ {
			lo := childStart + g*staticFanout
			hi := lo + staticFanout
			if end := childStart + childCnt; hi > end {
				hi = end
			}
			mnLat, mnLng := math.Inf(1), math.Inf(1)
			mxLat, mxLng := math.Inf(-1), math.Inf(-1)
			for c := lo; c < hi; c++ {
				if isItems {
					mnLat = math.Min(mnLat, lay.ItemMinLat[c])
					mnLng = math.Min(mnLng, lay.ItemMinLng[c])
					mxLat = math.Max(mxLat, lay.ItemMaxLat[c])
					mxLng = math.Max(mxLng, lay.ItemMaxLng[c])
				} else {
					mnLat = math.Min(mnLat, lay.NodeMinLat[c])
					mnLng = math.Min(mnLng, lay.NodeMinLng[c])
					mxLat = math.Max(mxLat, lay.NodeMaxLat[c])
					mxLng = math.Max(mxLng, lay.NodeMaxLng[c])
				}
			}
			lay.NodeMinLat = append(lay.NodeMinLat, mnLat)
			lay.NodeMinLng = append(lay.NodeMinLng, mnLng)
			lay.NodeMaxLat = append(lay.NodeMaxLat, mxLat)
			lay.NodeMaxLng = append(lay.NodeMaxLng, mxLng)
			lay.ChildLo = append(lay.ChildLo, int32(lo))
			lay.ChildHi = append(lay.ChildHi, int32(hi))
		}
		lay.LevelOff = append(lay.LevelOff, int32(len(lay.ChildLo)))
		if groups == 1 {
			s.root = int32(len(lay.ChildLo) - 1)
			return s
		}
		childStart, childCnt, isItems = levelStart, groups, false
	}
}

// StaticFromLayout reconstructs a Static tree from persisted columns,
// validating every structural invariant traversal relies on (column
// lengths, level offsets, child-range partition per level), so a corrupt
// or hand-edited snapshot fails attach — and falls back to a rebuild —
// instead of panicking mid-query.
func StaticFromLayout[T comparable](lay StaticLayout, items []T) (*Static[T], error) {
	n := len(items)
	if len(lay.ItemMinLat) != n || len(lay.ItemMinLng) != n ||
		len(lay.ItemMaxLat) != n || len(lay.ItemMaxLng) != n {
		return nil, fmt.Errorf("rtree: static layout: item columns disagree with %d items", n)
	}
	nt := len(lay.ChildLo)
	if len(lay.ChildHi) != nt || len(lay.NodeMinLat) != nt || len(lay.NodeMinLng) != nt ||
		len(lay.NodeMaxLat) != nt || len(lay.NodeMaxLng) != nt {
		return nil, fmt.Errorf("rtree: static layout: tree-node columns disagree")
	}
	if len(lay.LevelOff) == 0 || lay.LevelOff[0] != 0 ||
		int(lay.LevelOff[len(lay.LevelOff)-1]) != nt {
		return nil, fmt.Errorf("rtree: static layout: level offsets inconsistent")
	}
	if n == 0 {
		if nt != 0 {
			return nil, fmt.Errorf("rtree: static layout: tree nodes without items")
		}
		return &Static[T]{lay: lay, root: -1}, nil
	}
	if len(lay.LevelOff) < 2 || lay.LevelOff[len(lay.LevelOff)-1]-lay.LevelOff[len(lay.LevelOff)-2] != 1 {
		return nil, fmt.Errorf("rtree: static layout: root level must hold one node")
	}
	// Each level's child ranges must partition the level below (items for
	// level 0) in order: consecutive, complete, in-range.
	for l := 0; l+1 < len(lay.LevelOff); l++ {
		start, end := lay.LevelOff[l], lay.LevelOff[l+1]
		if start >= end {
			return nil, fmt.Errorf("rtree: static layout: empty level %d", l)
		}
		var childLo, childHi int32
		if l == 0 {
			childLo, childHi = 0, int32(n)
		} else {
			childLo, childHi = lay.LevelOff[l-1], lay.LevelOff[l]
		}
		want := childLo
		for i := start; i < end; i++ {
			if lay.ChildLo[i] != want || lay.ChildHi[i] <= lay.ChildLo[i] {
				return nil, fmt.Errorf("rtree: static layout: child ranges not a partition at node %d", i)
			}
			want = lay.ChildHi[i]
		}
		if want != childHi {
			return nil, fmt.Errorf("rtree: static layout: level %d does not cover its children", l)
		}
	}
	return &Static[T]{lay: lay, items: items, root: int32(nt - 1)}, nil
}

// Layout exposes the packed columns for serialization. The returned slices
// are the live tree — callers must not mutate them.
func (s *Static[T]) Layout() StaticLayout { return s.lay }

// Items exposes the payload column, parallel to the item bound columns in
// Layout. Read-only.
func (s *Static[T]) Items() []T { return s.items }

// Len returns the number of items stored.
func (s *Static[T]) Len() int { return len(s.items) }

// Search calls fn for every item whose bound intersects query (an empty
// query matches nothing). Returning false from fn stops the search early.
// Traversal is iterative over the packed columns — no recursion, no
// per-query allocation.
func (s *Static[T]) Search(query geo.Rect, fn func(bound geo.Rect, item T) bool) {
	if s.root < 0 || query.IsEmpty() {
		return
	}
	lay := &s.lay
	if !overlaps(query, lay.NodeMinLat[s.root], lay.NodeMinLng[s.root], lay.NodeMaxLat[s.root], lay.NodeMaxLng[s.root]) {
		return
	}
	leafEnd := lay.LevelOff[1]
	var stackArr [128]int32
	stack := append(stackArr[:0], s.root)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lo, hi := lay.ChildLo[i], lay.ChildHi[i]
		if i < leafEnd {
			for c := lo; c < hi; c++ {
				if overlaps(query, lay.ItemMinLat[c], lay.ItemMinLng[c], lay.ItemMaxLat[c], lay.ItemMaxLng[c]) {
					b := geo.Rect{
						MinLat: lay.ItemMinLat[c], MinLng: lay.ItemMinLng[c],
						MaxLat: lay.ItemMaxLat[c], MaxLng: lay.ItemMaxLng[c],
					}
					if !fn(b, s.items[c]) {
						return
					}
				}
			}
		} else {
			for c := lo; c < hi; c++ {
				if overlaps(query, lay.NodeMinLat[c], lay.NodeMinLng[c], lay.NodeMaxLat[c], lay.NodeMaxLng[c]) {
					stack = append(stack, c)
				}
			}
		}
	}
}

// overlaps is geo.Rect.Intersects against unpacked columns. Stored bounds
// are never empty (BulkLoad unions non-empty entry bounds), so only the
// query's emptiness needs checking — done once in Search.
func overlaps(q geo.Rect, minLat, minLng, maxLat, maxLng float64) bool {
	return q.MinLat <= maxLat && minLat <= q.MaxLat && q.MinLng <= maxLng && minLng <= q.MaxLng
}

// snnEntry is one frontier element of a static nearest-neighbour search:
// a tree node or an item, identified by column index — deliberately
// non-generic so one pool serves every instantiation.
type snnEntry struct {
	dist float64
	idx  int32
	item bool
}

var snnPool = sync.Pool{New: func() any {
	h := make([]snnEntry, 0, 256)
	return &h
}}

// Neighbor is a nearest-neighbour result.
type Neighbor[T comparable] struct {
	Item           T
	Bound          geo.Rect
	DistanceMeters float64
}

// Nearest returns up to k items closest to ll, ordered by distance from ll
// to the item's bounding rectangle (exact for point items). maxMeters <= 0
// means unbounded.
func (s *Static[T]) Nearest(ll geo.LatLng, k int, maxMeters float64) []Neighbor[T] {
	return s.NearestAppend(nil, ll, k, maxMeters)
}

// NearestAppend is Nearest appending into out. The frontier heap is
// pooled; with a reused out buffer the query allocates nothing.
func (s *Static[T]) NearestAppend(out []Neighbor[T], ll geo.LatLng, k int, maxMeters float64) []Neighbor[T] {
	if k <= 0 || s.root < 0 {
		return out
	}
	lay := &s.lay
	pq := snnPool.Get().(*[]snnEntry)
	h := (*pq)[:0]
	defer func() { *pq = h; snnPool.Put(pq) }()

	leafEnd := lay.LevelOff[1]
	rootDist := s.nodeDist(ll, s.root)
	if maxMeters <= 0 || rootDist <= maxMeters {
		h = snnPush(h, snnEntry{dist: rootDist, idx: s.root})
	}
	base := len(out)
	for len(h) > 0 && len(out)-base < k {
		var top snnEntry
		top, h = snnPop(h)
		if maxMeters > 0 && top.dist > maxMeters {
			break
		}
		if top.item {
			c := top.idx
			out = append(out, Neighbor[T]{
				Item: s.items[c],
				Bound: geo.Rect{
					MinLat: lay.ItemMinLat[c], MinLng: lay.ItemMinLng[c],
					MaxLat: lay.ItemMaxLat[c], MaxLng: lay.ItemMaxLng[c],
				},
				DistanceMeters: top.dist,
			})
			continue
		}
		i := top.idx
		lo, hi := lay.ChildLo[i], lay.ChildHi[i]
		if i < leafEnd {
			for c := lo; c < hi; c++ {
				d := s.itemDist(ll, c)
				if maxMeters > 0 && d > maxMeters {
					continue
				}
				h = snnPush(h, snnEntry{dist: d, idx: c, item: true})
			}
		} else {
			for c := lo; c < hi; c++ {
				d := s.nodeDist(ll, c)
				if maxMeters > 0 && d > maxMeters {
					continue
				}
				h = snnPush(h, snnEntry{dist: d, idx: c})
			}
		}
	}
	return out
}

func (s *Static[T]) nodeDist(ll geo.LatLng, i int32) float64 {
	return clampDist(ll, s.lay.NodeMinLat[i], s.lay.NodeMinLng[i], s.lay.NodeMaxLat[i], s.lay.NodeMaxLng[i])
}

func (s *Static[T]) itemDist(ll geo.LatLng, c int32) float64 {
	return clampDist(ll, s.lay.ItemMinLat[c], s.lay.ItemMinLng[c], s.lay.ItemMaxLat[c], s.lay.ItemMaxLng[c])
}

// clampDist returns the great-circle distance from ll to the nearest point
// of the rectangle (0 if contained).
func clampDist(ll geo.LatLng, minLat, minLng, maxLat, maxLng float64) float64 {
	lat := math.Max(minLat, math.Min(maxLat, ll.Lat))
	lng := math.Max(minLng, math.Min(maxLng, ll.Lng))
	return geo.DistanceMeters(ll, geo.LatLng{Lat: lat, Lng: lng})
}

func snnPush(h []snnEntry, e snnEntry) []snnEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].dist <= h[i].dist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func snnPop(h []snnEntry) (snnEntry, []snnEntry) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l].dist < h[min].dist {
			min = l
		}
		if r < len(h) && h[r].dist < h[min].dist {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top, h
}
