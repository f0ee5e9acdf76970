// Package osm implements the OpenStreetMap data model the paper adopts for
// maps (§3): nodes, ways, and relations, each carrying free-form tag
// metadata, plus an XML reader/writer compatible with the OSM interchange
// format so real extracts can be substituted for the synthetic worlds used
// in the experiments.
//
// A Map additionally carries a coordinate Frame: outdoor maps are geodetic
// (node positions are accurate latitude/longitude), while indoor maps may be
// local (positions are meters in the map's own frame, anchored only coarsely
// to the world) — the heterogeneity challenge of §2.1.
package osm

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"openflame/internal/geo"
)

// Element identifiers.
type (
	// NodeID identifies a node within a map.
	NodeID int64
	// WayID identifies a way within a map.
	WayID int64
	// RelationID identifies a relation within a map.
	RelationID int64
)

// Tags is free-form element metadata.
type Tags map[string]string

// Get returns the value for key, or "".
func (t Tags) Get(key string) string { return t[key] }

// Has reports whether key is present.
func (t Tags) Has(key string) bool { _, ok := t[key]; return ok }

// Clone returns a copy of the tag set.
func (t Tags) Clone() Tags {
	if t == nil {
		return nil
	}
	out := make(Tags, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}

// Well-known tag keys used across OpenFLAME.
const (
	TagName     = "name"
	TagAmenity  = "amenity"
	TagShop     = "shop"
	TagHighway  = "highway"
	TagBuilding = "building"
	TagIndoor   = "indoor"
	TagLevel    = "level"
	TagAddr     = "addr:full"
	TagStreet   = "addr:street"
	TagNumber   = "addr:housenumber"
	TagCity     = "addr:city"
	TagProduct  = "flame:product" // inventory item stocked at a shelf node
	TagPortalID = "flame:portal"  // shared boundary node linking two maps
	TagOneway   = "oneway"
	TagMaxSpeed = "maxspeed"
)

// Node is a point element. For geodetic maps Pos is authoritative; for
// local-frame maps Local is authoritative and Pos holds only a coarse
// anchor-derived estimate (possibly zero).
type Node struct {
	ID    NodeID
	Pos   geo.LatLng
	Local geo.Point
	Tags  Tags
}

// Way is an ordered polyline (or closed polygon) of nodes.
type Way struct {
	ID      WayID
	NodeIDs []NodeID
	Tags    Tags
}

// IsClosed reports whether the way forms a ring.
func (w *Way) IsClosed() bool {
	return len(w.NodeIDs) >= 3 && w.NodeIDs[0] == w.NodeIDs[len(w.NodeIDs)-1]
}

// MemberType distinguishes relation member kinds.
type MemberType int

// Relation member kinds.
const (
	MemberNode MemberType = iota
	MemberWay
	MemberRelation
)

// Member is one entry of a relation.
type Member struct {
	Type MemberType
	Ref  int64
	Role string
}

// Relation groups related elements.
type Relation struct {
	ID      RelationID
	Members []Member
	Tags    Tags
}

// FrameKind distinguishes coordinate frames.
type FrameKind int

// Frame kinds.
const (
	// FrameGeodetic maps have accurate latitude/longitude positions.
	FrameGeodetic FrameKind = iota
	// FrameLocal maps have accurate positions only in their own planar
	// metric frame; the geodetic anchor is coarse (§2.1: aligning indoor
	// maps to the geographic frame is notoriously difficult).
	FrameLocal
)

// Frame describes a map's coordinate system.
type Frame struct {
	Kind FrameKind
	// Anchor approximates the world position of the local origin. For
	// geodetic maps it is informational.
	Anchor geo.LatLng
	// AnchorBearingDeg approximates the rotation of the local +Y axis
	// relative to true north, degrees clockwise.
	AnchorBearingDeg float64
}

// Map is a collection of elements with a coordinate frame: "a portion of the
// spatial namespace independently managed by an organization" (§3).
// Maps are safe for concurrent use. AddNode, AddWay, AddRelation and
// Compact are construction-only: they build a map (world generation,
// import, XML, centralized merging) before anything reads it. Once built,
// a map is never written in place — the store and the centralized
// pipeline derive each next state with WithNode and leave the old map
// intact for the readers still holding it.
//
// Node storage is columnar (see columns): the bulk of the nodes live in
// packed, immutable, ID-sorted arrays; added or replaced nodes land in a
// small overlay map that compaction folds back into the columns. Node and
// Nodes return views materialized from the columns — fresh values the
// caller may read freely but whose mutation never reaches the map.
type Map struct {
	Name  string
	Frame Frame

	mu sync.RWMutex
	// cols is the packed block; overlay holds nodes added or replaced since
	// the last compaction (stored by reference, as AddNode documents).
	cols    *columns
	overlay map[NodeID]*Node
	// count is the node population across both layers.
	count     int
	ways      map[WayID]*Way
	relations map[RelationID]*Relation
	nextNode  NodeID
	nextWay   WayID
	nextRel   RelationID
	// gen counts successful mutations: every write method bumps it under
	// mu, and a map WithNode derives carries its parent's plus one — the
	// version the server-side query cache keys on.
	gen uint64
	// mapped is the memory-mapped snapshot file backing cols when
	// LoadSnapshotFileIndexed mapped it; nil otherwise.
	mapped []byte
}

// Generation returns the map's mutation counter: zero for a fresh map,
// monotonically increasing by one per successful mutation (adds and
// replacements). A rejected way does not bump it.
func (m *Map) Generation() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.gen
}

// NewMap creates an empty map.
func NewMap(name string, frame Frame) *Map {
	return &Map{
		Name:      name,
		Frame:     frame,
		cols:      emptyColumns(),
		overlay:   make(map[NodeID]*Node),
		ways:      make(map[WayID]*Way),
		relations: make(map[RelationID]*Relation),
	}
}

// newMapFromColumns wires a prebuilt packed block straight into a Map —
// the bulk-load path used by the snapshot v2 reader and the streaming
// importer. Ways and relations are adopted by reference.
func newMapFromColumns(name string, frame Frame, cols *columns,
	ways map[WayID]*Way, relations map[RelationID]*Relation) *Map {
	m := &Map{
		Name:      name,
		Frame:     frame,
		cols:      cols,
		overlay:   make(map[NodeID]*Node),
		count:     cols.len(),
		ways:      ways,
		relations: relations,
	}
	if m.ways == nil {
		m.ways = make(map[WayID]*Way)
	}
	if m.relations == nil {
		m.relations = make(map[RelationID]*Relation)
	}
	if n := cols.len(); n > 0 {
		m.nextNode = NodeID(cols.ids[n-1])
	}
	for id := range m.ways {
		if id > m.nextWay {
			m.nextWay = id
		}
	}
	for id := range m.relations {
		if id > m.nextRel {
			m.nextRel = id
		}
	}
	return m
}

// hasNodeLocked reports whether id is present, caller holds mu (read or
// write).
func (m *Map) hasNodeLocked(id NodeID) bool {
	if _, ok := m.overlay[id]; ok {
		return true
	}
	return m.cols.find(id) >= 0
}

// AddNode inserts a node, allocating an ID if n.ID is zero, and returns the
// ID. The node is stored by reference (until the next compaction packs it
// into the columns); adding an existing ID replaces that node.
func (m *Map) AddNode(n *Node) NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n.ID == 0 {
		m.nextNode++
		n.ID = m.nextNode
	} else if n.ID > m.nextNode {
		m.nextNode = n.ID
	}
	if !m.hasNodeLocked(n.ID) {
		m.count++
	}
	m.overlay[n.ID] = n
	m.gen++
	m.maybeCompactLocked()
	return n.ID
}

// WithNode returns a new map holding m's content with n added (or, for an
// existing ID, replaced), leaving m untouched — the persistent write behind
// the store's read views. The result shares m's columns, ways and relations
// and copies only the small overlay, so its cost is bounded by
// compactMinPending, not by the map's size; once the overlay reaches that
// count it folds into fresh columns. Its generation is m's plus one. n must
// carry an ID, and neither map may be written in place afterwards.
func (m *Map) WithNode(n *Node) *Map {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := &Map{
		Name:      m.Name,
		Frame:     m.Frame,
		cols:      m.cols,
		overlay:   make(map[NodeID]*Node, len(m.overlay)+1),
		count:     m.count,
		ways:      m.ways,
		relations: m.relations,
		nextNode:  max(m.nextNode, n.ID),
		nextWay:   m.nextWay,
		nextRel:   m.nextRel,
		gen:       m.gen + 1,
		mapped:    m.mapped,
	}
	for id, on := range m.overlay {
		out.overlay[id] = on
	}
	if !m.hasNodeLocked(n.ID) {
		out.count++
	}
	out.overlay[n.ID] = n
	if len(out.overlay) >= compactMinPending {
		out.compactLocked()
	}
	return out
}

// AddWay inserts a way, allocating an ID if w.ID is zero. All referenced
// nodes must already exist.
func (m *Map) AddWay(w *Way) (WayID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, nid := range w.NodeIDs {
		if !m.hasNodeLocked(nid) {
			return 0, fmt.Errorf("osm: way references missing node %d", nid)
		}
	}
	if w.ID == 0 {
		m.nextWay++
		w.ID = m.nextWay
	} else if w.ID > m.nextWay {
		m.nextWay = w.ID
	}
	m.ways[w.ID] = w
	m.gen++
	return w.ID, nil
}

// AddRelation inserts a relation, allocating an ID if r.ID is zero.
func (m *Map) AddRelation(r *Relation) RelationID {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.ID == 0 {
		m.nextRel++
		r.ID = m.nextRel
	} else if r.ID > m.nextRel {
		m.nextRel = r.ID
	}
	m.relations[r.ID] = r
	m.gen++
	return r.ID
}

// Node returns the node with the given ID, or nil. The result is a view:
// reading it is always safe, but writes to it never reach the map — use
// AddNode (same ID) to replace a node's content.
func (m *Map) Node(id NodeID) *Node {
	m.mu.RLock()
	if n, ok := m.overlay[id]; ok {
		m.mu.RUnlock()
		return n
	}
	cols := m.cols
	m.mu.RUnlock()
	// cols is immutable once published: materialize outside the lock.
	i := cols.find(id)
	if i < 0 {
		return nil
	}
	return cols.node(i)
}

// Way returns the way with the given ID, or nil.
func (m *Map) Way(id WayID) *Way {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ways[id]
}

// Relation returns the relation with the given ID, or nil.
func (m *Map) Relation(id RelationID) *Relation {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.relations[id]
}

// NodeCount returns the number of nodes.
func (m *Map) NodeCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.count
}

// WayCount returns the number of ways.
func (m *Map) WayCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.ways)
}

// RelationCount returns the number of relations.
func (m *Map) RelationCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.relations)
}

// Nodes calls fn for each node in ascending ID order. Returning false stops
// the iteration. The walk is O(n): the packed columns are sorted by
// construction, so only the (small, compaction-bounded) overlay is sorted
// per call — never the full key set. fn receives views; it must not retain
// assumptions of pointer identity across walks, and the iteration sees one
// consistent snapshot of membership as of the call.
func (m *Map) Nodes(fn func(*Node) bool) {
	cols, ov := m.nodeSnapshot()
	oi, vi := 0, 0
	for oi < cols.len() || vi < len(ov) {
		if vi == len(ov) || (oi < cols.len() && cols.ids[oi] < int64(ov[vi].ID)) {
			if !fn(cols.node(oi)) {
				return
			}
			oi++
			continue
		}
		if oi < cols.len() && cols.ids[oi] == int64(ov[vi].ID) {
			oi++ // overlay overrides the packed copy
		}
		if !fn(ov[vi]) {
			return
		}
		vi++
	}
}

// nodeSnapshot captures a consistent view of the node layers: the packed
// block (immutable) and the overlay sorted by ID. Taken under RLock; safe
// to iterate after release.
func (m *Map) nodeSnapshot() (*columns, []*Node) {
	m.mu.RLock()
	cols := m.cols
	var ov []*Node
	if len(m.overlay) > 0 {
		ov = make([]*Node, 0, len(m.overlay))
		for _, n := range m.overlay {
			ov = append(ov, n)
		}
	}
	m.mu.RUnlock()
	sort.Slice(ov, func(i, j int) bool { return ov[i].ID < ov[j].ID })
	return cols, ov
}

// Ways calls fn for each way in ascending ID order.
func (m *Map) Ways(fn func(*Way) bool) {
	m.mu.RLock()
	ids := make([]WayID, 0, len(m.ways))
	for id := range m.ways {
		ids = append(ids, id)
	}
	m.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		w := m.Way(id)
		if w == nil {
			continue
		}
		if !fn(w) {
			return
		}
	}
}

// Relations calls fn for each relation in ascending ID order.
func (m *Map) Relations(fn func(*Relation) bool) {
	m.mu.RLock()
	ids := make([]RelationID, 0, len(m.relations))
	for id := range m.relations {
		ids = append(ids, id)
	}
	m.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := m.Relation(id)
		if r == nil {
			continue
		}
		if !fn(r) {
			return
		}
	}
}

// WayNodes resolves a way's node IDs to nodes (views), skipping dangling
// references (AddWay refuses them, but a decoded snapshot may carry them).
func (m *Map) WayNodes(w *Way) []*Node {
	out := make([]*Node, 0, len(w.NodeIDs))
	m.mu.RLock()
	cols := m.cols
	for _, id := range w.NodeIDs {
		if n, ok := m.overlay[id]; ok {
			out = append(out, n)
			continue
		}
		if i := cols.find(id); i >= 0 {
			out = append(out, cols.node(i))
		}
	}
	m.mu.RUnlock()
	return out
}

// NodePosition returns the node's position in geodetic coordinates: for
// geodetic maps the stored position; for local maps the coarse estimate
// obtained by projecting the local point through the frame anchor. Callers
// needing precise alignment use the align package.
func (m *Map) NodePosition(n *Node) geo.LatLng {
	if m.Frame.Kind == FrameGeodetic {
		return n.Pos
	}
	pr := geo.NewLocalProjection(m.Frame.Anchor)
	p := rotate(n.Local, -m.Frame.AnchorBearingDeg)
	return pr.ToLatLng(p)
}

// LocalPosition returns the node's position in the map's planar frame: for
// local maps the stored point; for geodetic maps the projection around the
// frame anchor (or the map centroid if the anchor is zero).
func (m *Map) LocalPosition(n *Node) geo.Point {
	if m.Frame.Kind == FrameLocal {
		return n.Local
	}
	anchor := m.Frame.Anchor
	if anchor == (geo.LatLng{}) {
		anchor = m.Bounds().Center()
	}
	return geo.NewLocalProjection(anchor).ToPoint(n.Pos)
}

func rotate(p geo.Point, deg float64) geo.Point {
	s, c := math.Sincos(geo.DegToRad(deg))
	return geo.Point{X: p.X*c - p.Y*s, Y: p.X*s + p.Y*c}
}

// Bounds returns the geodetic bounding rectangle of all nodes (using
// NodePosition, so local maps are bounded via their anchor).
func (m *Map) Bounds() geo.Rect {
	r := geo.EmptyRect()
	cols, ov := m.nodeSnapshot()
	// Packed entries shadowed by an overlay replacement must not
	// contribute their (stale) position.
	var skip map[NodeID]struct{}
	if len(ov) > 0 {
		skip = make(map[NodeID]struct{}, len(ov))
		for _, n := range ov {
			skip[n.ID] = struct{}{}
		}
	}
	if m.Frame.Kind == FrameGeodetic {
		// Geodetic bounds come straight off the lat/lng columns — no node
		// materialization.
		for i := 0; i < cols.len(); i++ {
			if _, dead := skip[NodeID(cols.ids[i])]; dead {
				continue
			}
			r = r.ExpandToInclude(cols.pos(i))
		}
		for _, n := range ov {
			r = r.ExpandToInclude(n.Pos)
		}
		return r
	}
	pr := geo.NewLocalProjection(m.Frame.Anchor)
	expand := func(local geo.Point) {
		p := rotate(local, -m.Frame.AnchorBearingDeg)
		r = r.ExpandToInclude(pr.ToLatLng(p))
	}
	for i := 0; i < cols.len(); i++ {
		if _, dead := skip[NodeID(cols.ids[i])]; dead {
			continue
		}
		expand(cols.local(i))
	}
	for _, n := range ov {
		expand(n.Local)
	}
	return r
}

// FindNodes returns nodes whose tags satisfy pred, in ID order.
//
// This is a full linear walk — O(nodes) regardless of how many match — so
// it has no place on a serving path: servers answer tag and text queries
// from store.View's inverted index and portal discovery from
// store.View.PortalNodeIDs. Its remaining legitimate uses are one-off
// offline passes over a map (import tooling, examples, tests) where no
// store exists yet and an arbitrary predicate beats building one.
func (m *Map) FindNodes(pred func(*Node) bool) []*Node {
	var out []*Node
	m.Nodes(func(n *Node) bool {
		if pred(n) {
			out = append(out, n)
		}
		return true
	})
	return out
}
