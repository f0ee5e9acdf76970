// Package rtree implements the spatial indexes behind the map store's
// reverse-geocode, nearest-neighbour, and viewport queries: a static STR
// bulk-loaded tree over packed parallel arrays (static.go), which is what
// a serving store holds, and a dynamic R-tree with quadratic splits (this
// file) that the static tree is checked against.
package rtree

import (
	"math"
	"sync"

	"openflame/internal/geo"
)

const (
	maxEntries = 16
	minEntries = maxEntries * 2 / 5 // 40% fill floor, standard for quadratic R-trees
)

// entry holds a leaf payload or a child pointer. The payload is stored
// inline as a concrete T — no interface boxing, so the hot insert path
// (one entry append per Insert) allocates nothing per item beyond the
// node's entry slice growth.
type entry[T comparable] struct {
	bound geo.Rect
	child *node[T] // nil for leaf entries
	item  T        // zero for internal entries
}

type node[T comparable] struct {
	leaf    bool
	entries []entry[T]
}

// Tree is a dynamic R-tree storing payloads of comparable type T (small
// IDs or packed references; equality identifies items for Delete). The
// zero value is not usable; call New. Tree is not safe for concurrent
// mutation; wrap with a lock if needed.
type Tree[T comparable] struct {
	root *node[T]
	size int
	path []*node[T] // scratch: root-to-leaf descent of the current insert
	// nnHeap pools Nearest's frontier heap across queries. A sync.Pool
	// (not a plain scratch field) because readers legitimately share a
	// Tree under an RLock.
	nnHeap sync.Pool
}

// New creates an empty R-tree.
func New[T comparable]() *Tree[T] {
	return &Tree[T]{root: &node[T]{leaf: true}}
}

// Len returns the number of items stored.
func (t *Tree[T]) Len() int { return t.size }

// Insert adds an item with the given bounding rectangle.
func (t *Tree[T]) Insert(bound geo.Rect, item T) {
	e := entry[T]{bound: bound, item: item}
	leaf := t.chooseLeaf(t.root, e)
	leaf.entries = append(leaf.entries, e)
	t.size++
	split := t.splitIfNeeded(leaf)
	t.adjustTree(leaf, split)
}

// Delete removes the first item equal to item with exactly the given bound.
// It returns whether an item was removed.
func (t *Tree[T]) Delete(bound geo.Rect, item T) bool {
	path := t.findLeafPath(t.root, bound, item, nil)
	if path == nil {
		return false
	}
	leaf := path[len(path)-1]
	for i, e := range leaf.entries {
		if e.item == item && e.bound == bound {
			leaf.entries = append(leaf.entries[:i], leaf.entries[i+1:]...)
			t.size--
			t.condenseTree(path)
			return true
		}
	}
	return false
}

// Search calls fn for every item whose bound intersects query. Returning
// false from fn stops the search early.
func (t *Tree[T]) Search(query geo.Rect, fn func(bound geo.Rect, item T) bool) {
	t.search(t.root, query, fn)
}

func (t *Tree[T]) search(n *node[T], query geo.Rect, fn func(geo.Rect, T) bool) bool {
	for _, e := range n.entries {
		if !e.bound.Intersects(query) {
			continue
		}
		if n.leaf {
			if !fn(e.bound, e.item) {
				return false
			}
		} else if !t.search(e.child, query, fn) {
			return false
		}
	}
	return true
}

// SearchItems returns all items whose bounds intersect query.
func (t *Tree[T]) SearchItems(query geo.Rect) []T {
	var out []T
	t.Search(query, func(_ geo.Rect, it T) bool {
		out = append(out, it)
		return true
	})
	return out
}

// ForEach calls fn for every item in the tree (arbitrary order). Returning
// false stops early.
func (t *Tree[T]) ForEach(fn func(bound geo.Rect, item T) bool) {
	t.forEach(t.root, fn)
}

func (t *Tree[T]) forEach(n *node[T], fn func(geo.Rect, T) bool) bool {
	for _, e := range n.entries {
		if n.leaf {
			if !fn(e.bound, e.item) {
				return false
			}
		} else if !t.forEach(e.child, fn) {
			return false
		}
	}
	return true
}

// Neighbor is a nearest-neighbour result.
type Neighbor[T comparable] struct {
	Item           T
	Bound          geo.Rect
	DistanceMeters float64
}

// Nearest returns up to k items closest to ll, ordered by distance from ll
// to the item's bounding rectangle (exact for point items). maxMeters <= 0
// means unbounded.
func (t *Tree[T]) Nearest(ll geo.LatLng, k int, maxMeters float64) []Neighbor[T] {
	return t.NearestAppend(nil, ll, k, maxMeters)
}

// NearestAppend is Nearest appending into out (pass a reused buffer
// truncated to len 0 for an allocation-free query; the frontier heap is
// pooled internally).
func (t *Tree[T]) NearestAppend(out []Neighbor[T], ll geo.LatLng, k int, maxMeters float64) []Neighbor[T] {
	if k <= 0 {
		return out
	}
	var pq *[]nnEntry[T]
	if v := t.nnHeap.Get(); v != nil {
		pq = v.(*[]nnEntry[T])
		*pq = (*pq)[:0]
	} else {
		h := make([]nnEntry[T], 0, 64)
		pq = &h
	}
	defer t.nnHeap.Put(pq)
	heapPush(pq, nnEntry[T]{dist: 0, node: t.root})
	base := len(out)
	for len(*pq) > 0 && len(out)-base < k {
		top := heapPop(pq)
		if maxMeters > 0 && top.dist > maxMeters {
			break
		}
		if top.node == nil {
			out = append(out, Neighbor[T]{Item: top.item, Bound: top.bound, DistanceMeters: top.dist})
			continue
		}
		for _, e := range top.node.entries {
			d := rectDistance(ll, e.bound)
			if maxMeters > 0 && d > maxMeters {
				continue
			}
			if top.node.leaf {
				heapPush(pq, nnEntry[T]{dist: d, item: e.item, bound: e.bound})
			} else {
				heapPush(pq, nnEntry[T]{dist: d, node: e.child})
			}
		}
	}
	return out
}

// rectDistance returns the great-circle distance from ll to the nearest point
// of r (0 if contained).
func rectDistance(ll geo.LatLng, r geo.Rect) float64 {
	lat := math.Max(r.MinLat, math.Min(r.MaxLat, ll.Lat))
	lng := math.Max(r.MinLng, math.Min(r.MaxLng, ll.Lng))
	return geo.DistanceMeters(ll, geo.LatLng{Lat: lat, Lng: lng})
}

type nnEntry[T comparable] struct {
	dist  float64
	node  *node[T] // non-nil for tree nodes
	item  T
	bound geo.Rect
}

// heapPush/heapPop maintain a value-typed binary min-heap by dist —
// container/heap would box every element through its interface methods.
func heapPush[T comparable](q *[]nnEntry[T], e nnEntry[T]) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].dist <= h[i].dist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	*q = h
}

func heapPop[T comparable](q *[]nnEntry[T]) nnEntry[T] {
	h := *q
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
	*q = h
	return top
}

// Bound returns the bounding rectangle of everything in the tree.
func (t *Tree[T]) Bound() geo.Rect {
	return nodeBound(t.root)
}

func nodeBound[T comparable](n *node[T]) geo.Rect {
	r := geo.EmptyRect()
	for _, e := range n.entries {
		r = r.Union(e.bound)
	}
	return r
}

// --- insertion internals ---

// The tree stores no parent pointers; instead chooseLeaf records the descent
// path in t.path for adjustTree to walk back up.
func (t *Tree[T]) chooseLeaf(n *node[T], e entry[T]) *node[T] {
	t.path = t.path[:0]
	for !n.leaf {
		t.path = append(t.path, n)
		best := -1
		var bestEnl, bestArea float64
		for i, c := range n.entries {
			enl, area := enlargement(c.bound, e.bound)
			if best == -1 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		n = n.entries[best].child
	}
	t.path = append(t.path, n)
	return n
}

func enlargement(r, add geo.Rect) (enl, area float64) {
	area = rectArea(r)
	return rectArea(r.Union(add)) - area, area
}

func rectArea(r geo.Rect) float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.MaxLat - r.MinLat) * (r.MaxLng - r.MinLng)
}

// path is scratch space recording the most recent root-to-leaf descent.
// (declared on Tree to avoid allocation per insert)

func (t *Tree[T]) splitIfNeeded(n *node[T]) *node[T] {
	if len(n.entries) <= maxEntries {
		return nil
	}
	return splitNode(n)
}

// splitNode performs a quadratic split, mutating n and returning the new
// sibling node.
func splitNode[T comparable](n *node[T]) *node[T] {
	entries := n.entries
	// Pick seeds: the pair wasting the most area if grouped together.
	var s1, s2 int
	worst := math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := rectArea(entries[i].bound.Union(entries[j].bound)) -
				rectArea(entries[i].bound) - rectArea(entries[j].bound)
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	g1 := []entry[T]{entries[s1]}
	g2 := []entry[T]{entries[s2]}
	b1 := entries[s1].bound
	b2 := entries[s2].bound
	rest := make([]entry[T], 0, len(entries)-2)
	for i, e := range entries {
		if i != s1 && i != s2 {
			rest = append(rest, e)
		}
	}
	for len(rest) > 0 {
		// If one group must take all remaining to reach the minimum, do so.
		if len(g1)+len(rest) == minEntries {
			g1 = append(g1, rest...)
			for _, e := range rest {
				b1 = b1.Union(e.bound)
			}
			break
		}
		if len(g2)+len(rest) == minEntries {
			g2 = append(g2, rest...)
			for _, e := range rest {
				b2 = b2.Union(e.bound)
			}
			break
		}
		// Choose the entry with the greatest preference for one group.
		bestIdx, bestDiff := -1, math.Inf(-1)
		var toG1 bool
		for i, e := range rest {
			d1 := rectArea(b1.Union(e.bound)) - rectArea(b1)
			d2 := rectArea(b2.Union(e.bound)) - rectArea(b2)
			diff := math.Abs(d1 - d2)
			if diff > bestDiff {
				bestDiff, bestIdx, toG1 = diff, i, d1 < d2
			}
		}
		e := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		if toG1 {
			g1 = append(g1, e)
			b1 = b1.Union(e.bound)
		} else {
			g2 = append(g2, e)
			b2 = b2.Union(e.bound)
		}
	}
	n.entries = g1
	return &node[T]{leaf: n.leaf, entries: g2}
}

// adjustTree propagates bound updates and splits up the recorded path.
func (t *Tree[T]) adjustTree(_ *node[T], split *node[T]) {
	for i := len(t.path) - 2; i >= 0; i-- {
		parent := t.path[i]
		child := t.path[i+1]
		for j := range parent.entries {
			if parent.entries[j].child == child {
				parent.entries[j].bound = nodeBound(child)
				break
			}
		}
		if split != nil {
			parent.entries = append(parent.entries, entry[T]{bound: nodeBound(split), child: split})
			split = t.splitIfNeeded(parent)
		}
	}
	if split != nil {
		// Root split: grow the tree.
		newRoot := &node[T]{leaf: false, entries: []entry[T]{
			{bound: nodeBound(t.root), child: t.root},
			{bound: nodeBound(split), child: split},
		}}
		t.root = newRoot
	}
}

// findLeafPath returns the root-to-leaf node path to the leaf containing the
// item, or nil.
func (t *Tree[T]) findLeafPath(n *node[T], bound geo.Rect, item T, acc []*node[T]) []*node[T] {
	acc = append(acc, n)
	if n.leaf {
		for _, e := range n.entries {
			if e.item == item && e.bound == bound {
				out := make([]*node[T], len(acc))
				copy(out, acc)
				return out
			}
		}
		return nil
	}
	for _, e := range n.entries {
		if e.bound.ContainsRect(bound) || e.bound.Intersects(bound) {
			if p := t.findLeafPath(e.child, bound, item, acc); p != nil {
				return p
			}
		}
	}
	return nil
}

// condenseTree removes underfull nodes along the path and reinserts their
// orphaned entries.
func (t *Tree[T]) condenseTree(path []*node[T]) {
	var orphans []entry[T]
	for i := len(path) - 1; i >= 1; i-- {
		n := path[i]
		parent := path[i-1]
		if len(n.entries) < minEntries {
			// Remove n from parent and queue its entries for reinsertion.
			for j := range parent.entries {
				if parent.entries[j].child == n {
					parent.entries = append(parent.entries[:j], parent.entries[j+1:]...)
					break
				}
			}
			orphans = append(orphans, collectLeafEntries(n)...)
		} else {
			for j := range parent.entries {
				if parent.entries[j].child == n {
					parent.entries[j].bound = nodeBound(n)
					break
				}
			}
		}
	}
	// Shrink the root if it has a single child.
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
	}
	if !t.root.leaf && len(t.root.entries) == 0 {
		t.root = &node[T]{leaf: true}
	}
	for _, e := range orphans {
		t.size-- // Insert will re-increment
		t.Insert(e.bound, e.item)
	}
}

func collectLeafEntries[T comparable](n *node[T]) []entry[T] {
	if n.leaf {
		out := make([]entry[T], len(n.entries))
		copy(out, n.entries)
		return out
	}
	var out []entry[T]
	for _, e := range n.entries {
		out = append(out, collectLeafEntries(e.child)...)
	}
	return out
}
