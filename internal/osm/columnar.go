package osm

import (
	"sort"

	"openflame/internal/geo"
)

// Columnar node storage.
//
// A Map's nodes live in a columns block: one sorted NodeID column plus
// parallel lat/lng (and, for maps that carry local-frame positions, x/y)
// float64 columns, and an interned tag table — a shared string pool plus a
// flat [keyIdx, valIdx] pair arena addressed CSR-style through tagOff. A
// Manhattan-sized extract stores each node in a few tens of bytes with no
// per-node heap objects for the GC to scan, instead of the hundreds of
// bytes per node the previous map[NodeID]*Node layout cost.
//
// A columns block is IMMUTABLE once published on a Map: added or replaced
// nodes go to an overlay, and folding it builds a fresh block — the
// invariant that lets maps share a block, lets Nodes() walk without
// re-sorting and lets snapshot v2 alias mmap'd file columns directly.
type columns struct {
	ids []int64 // sorted ascending; the invariant every walk relies on
	lat []float64
	lng []float64
	// locX/locY are nil when no node carries a local-frame position (the
	// common geodetic-extract case) — maps with all-zero Local columns do
	// not pay for them.
	locX []float64
	locY []float64
	// tagOff[i] is the pair index of node i's first tag; node i's pairs are
	// tagPairs[2*tagOff[i] : 2*tagOff[i+1]]. len(tagOff) == len(ids)+1.
	// Keys within a node are in sorted order (canonical, so serializations
	// are deterministic).
	tagOff   []uint32
	tagPairs []uint32
	// pool is the interned string table tagPairs index into. Shared by
	// node and way tags in snapshot v2.
	pool []string
}

func emptyColumns() *columns {
	return &columns{tagOff: []uint32{0}}
}

func (c *columns) len() int { return len(c.ids) }

// find returns the column index of id, or -1.
func (c *columns) find(id NodeID) int {
	i := sort.Search(len(c.ids), func(i int) bool { return c.ids[i] >= int64(id) })
	if i < len(c.ids) && c.ids[i] == int64(id) {
		return i
	}
	return -1
}

// pos returns node i's stored geodetic position.
func (c *columns) pos(i int) geo.LatLng {
	return geo.LatLng{Lat: c.lat[i], Lng: c.lng[i]}
}

// local returns node i's stored local-frame position.
func (c *columns) local(i int) geo.Point {
	if c.locX == nil {
		return geo.Point{}
	}
	return geo.Point{X: c.locX[i], Y: c.locY[i]}
}

// tags materializes node i's tag set as a fresh map (nil when untagged).
func (c *columns) tags(i int) Tags {
	lo, hi := c.tagOff[i], c.tagOff[i+1]
	if lo == hi {
		return nil
	}
	t := make(Tags, hi-lo)
	for p := lo; p < hi; p++ {
		t[c.pool[c.tagPairs[2*p]]] = c.pool[c.tagPairs[2*p+1]]
	}
	return t
}

// node materializes a view of node i. The view is a fresh value: callers
// own it for reading, and writing to it never reaches the columns.
func (c *columns) node(i int) *Node {
	return &Node{
		ID:    NodeID(c.ids[i]),
		Pos:   c.pos(i),
		Local: c.local(i),
		Tags:  c.tags(i),
	}
}

// poolDataBytes sums the string data held by the pool.
func (c *columns) poolDataBytes() int64 {
	var n int64
	for _, s := range c.pool {
		n += int64(len(s))
	}
	return n
}

// packedBytes estimates the resident cost of the block: column backing
// arrays plus the pool's headers and data.
func (c *columns) packedBytes() int64 {
	b := int64(8 * (len(c.ids) + len(c.lat) + len(c.lng) + len(c.locX) + len(c.locY)))
	b += int64(4 * (len(c.tagOff) + len(c.tagPairs)))
	b += int64(16*len(c.pool)) + c.poolDataBytes()
	return b
}

// colBuilder accumulates a new columns block. Nodes must be appended in
// ascending ID order; tag strings are interned into the (possibly
// pre-seeded) pool.
type colBuilder struct {
	c      *columns
	intern map[string]uint32
	// scratch reuses one key-sorting buffer across appended nodes.
	scratch []string
}

// newColBuilder starts a block sized for n nodes, reusing pool as the
// already-interned prefix (the builder never mutates pool's existing
// entries, only appends).
func newColBuilder(n int, pool []string) *colBuilder {
	b := &colBuilder{
		c: &columns{
			ids:    make([]int64, 0, n),
			lat:    make([]float64, 0, n),
			lng:    make([]float64, 0, n),
			tagOff: append(make([]uint32, 0, n+1), 0),
			pool:   pool,
		},
		intern: make(map[string]uint32, len(pool)),
	}
	for i, s := range pool {
		b.intern[s] = uint32(i)
	}
	return b
}

func (b *colBuilder) internStr(s string) uint32 {
	if i, ok := b.intern[s]; ok {
		return i
	}
	i := uint32(len(b.c.pool))
	b.c.pool = append(b.c.pool, s)
	b.intern[s] = i
	return i
}

// add appends one node. IDs must arrive in strictly ascending order.
func (b *colBuilder) add(id NodeID, pos geo.LatLng, local geo.Point, tags Tags) {
	c := b.c
	if n := len(c.ids); n > 0 && c.ids[n-1] >= int64(id) {
		panic("osm: colBuilder.add out of order")
	}
	c.ids = append(c.ids, int64(id))
	c.lat = append(c.lat, pos.Lat)
	c.lng = append(c.lng, pos.Lng)
	if local != (geo.Point{}) && c.locX == nil {
		// First local-frame position: backfill zero columns for the nodes
		// already appended.
		c.locX = make([]float64, len(c.ids)-1, cap(c.ids))
		c.locY = make([]float64, len(c.ids)-1, cap(c.ids))
	}
	if c.locX != nil {
		c.locX = append(c.locX, local.X)
		c.locY = append(c.locY, local.Y)
	}
	if len(tags) > 0 {
		keys := b.scratch[:0]
		for k := range tags {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c.tagPairs = append(c.tagPairs, b.internStr(k), b.internStr(tags[k]))
		}
		b.scratch = keys
	}
	c.tagOff = append(c.tagOff, uint32(len(c.tagPairs)/2))
}

// finish returns the built block. The builder must not be reused.
func (b *colBuilder) finish() *columns {
	c := b.c
	b.c, b.intern = nil, nil
	return c
}

// StorageStats describes a map's storage footprint (see the flame-worldgen
// storage report and the E20 benchmark).
type StorageStats struct {
	Nodes     int `json:"nodes"`
	Ways      int `json:"ways"`
	Relations int `json:"relations"`
	// PackedNodes/OverlayNodes split the node population between the
	// columnar block and the overlay of a map WithNode derived (a built
	// map has none).
	PackedNodes  int `json:"packed_nodes"`
	OverlayNodes int `json:"overlay_nodes"`
	// InternedStrings is the tag string pool size; TagPairs the total
	// [key,value] pair count across packed nodes.
	InternedStrings int `json:"interned_strings"`
	TagPairs        int `json:"tag_pairs"`
	// PackedBytes is the resident cost of the columnar block (columns +
	// pool); BytesPerNode divides it by the node count.
	PackedBytes  int64   `json:"packed_bytes"`
	BytesPerNode float64 `json:"bytes_per_node"`
}

// StorageStats reports the map's storage footprint.
func (m *Map) StorageStats() StorageStats {
	st := StorageStats{
		Nodes:           m.count,
		Ways:            len(m.ways),
		Relations:       len(m.relations),
		PackedNodes:     m.cols.len(),
		OverlayNodes:    len(m.overlay),
		InternedStrings: len(m.cols.pool),
		TagPairs:        len(m.cols.tagPairs) / 2,
		PackedBytes:     m.cols.packedBytes(),
	}
	if st.Nodes > 0 {
		st.BytesPerNode = float64(st.PackedBytes) / float64(st.Nodes)
	}
	return st
}

// compactMinPending is the overlay size below which a Builder never folds
// and at which WithNode does: tiny maps and trickle writes stay in the
// overlay where a rebuild would cost more than it saves.
const compactMinPending = 1024

// fold merges the overlay into the columnar block. It changes
// representation, not content, so Generation does not move.
func (m *Map) fold() {
	if len(m.overlay) > 0 {
		m.cols = m.packed()
	}
	m.overlay = nil
}

// packed returns the map's nodes as one columns block: m.cols when the
// overlay is empty, else a fresh block merging the overlay into it. It
// leaves m untouched.
func (m *Map) packed() *columns {
	if len(m.overlay) == 0 {
		return m.cols
	}
	// Sort the overlay IDs once; the packed block is already sorted, so the
	// merge is linear.
	ovIDs := make([]int64, 0, len(m.overlay))
	for id := range m.overlay {
		ovIDs = append(ovIDs, int64(id))
	}
	sort.Slice(ovIDs, func(i, j int) bool { return ovIDs[i] < ovIDs[j] })

	old := m.cols
	// The pool is clipped to its length: old may still be read through
	// another map (WithNode shares columns), so the builder's appends must
	// never land in old's spare capacity.
	b := newColBuilder(m.count, old.pool[:len(old.pool):len(old.pool)])
	oi, vi := 0, 0
	for oi < old.len() || vi < len(ovIDs) {
		switch {
		case vi == len(ovIDs) || (oi < old.len() && old.ids[oi] < ovIDs[vi]):
			b.add(NodeID(old.ids[oi]), old.pos(oi), old.local(oi), old.tags(oi))
			oi++
		default:
			id := NodeID(ovIDs[vi])
			n := m.overlay[id]
			b.add(id, n.Pos, n.Local, n.Tags)
			if oi < old.len() && old.ids[oi] == ovIDs[vi] {
				oi++ // overlay overrides the packed copy
			}
			vi++
		}
	}
	return b.finish()
}
