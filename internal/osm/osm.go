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
	"math"
	"sort"

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
// A Map is immutable once built — a Builder constructs it (world
// generation, import, XML, centralized merging) and the snapshot decoder
// loads it — so it is safe for concurrent reads without a lock. The store
// and the centralized pipeline derive each next state with WithNode and
// leave the old map intact for the readers still holding it.
//
// Node storage is columnar (see columns): the nodes live in packed,
// ID-sorted arrays; a map WithNode derives keeps the nodes it added or
// replaced in a small overlay until enough accumulate to fold into fresh
// columns. Node and Nodes return views materialized from the columns —
// fresh values the caller may read freely but whose mutation never reaches
// the map.
type Map struct {
	Name  string
	Frame Frame

	// cols is the packed block; overlay holds nodes WithNode added or
	// replaced since the last fold (stored by reference).
	cols    *columns
	overlay map[NodeID]*Node
	// count is the node population across both layers.
	count     int
	ways      map[WayID]*Way
	relations map[RelationID]*Relation
	// gen is the version the server-side query cache keys on: the count
	// of successful adds for a built map, its parent's plus one for a map
	// WithNode derives.
	gen uint64
	// mapped is the memory-mapped snapshot file backing cols when
	// LoadSnapshotFileIndexed mapped it; nil otherwise.
	mapped []byte
}

// Generation returns the map's version: the number of successful adds
// that built it (a rejected way does not count), plus one per WithNode
// that derived it.
func (m *Map) Generation() uint64 { return m.gen }

// newMapFromColumns wires a prebuilt packed block straight into a Map —
// the bulk-load path of the snapshot v2 reader and the streaming importer.
// Ways and relations are adopted by reference.
func newMapFromColumns(name string, frame Frame, cols *columns,
	ways map[WayID]*Way, relations map[RelationID]*Relation) *Map {
	return &Map{
		Name:      name,
		Frame:     frame,
		cols:      cols,
		count:     cols.len(),
		ways:      ways,
		relations: relations,
	}
}

// hasNode reports whether id is present.
func (m *Map) hasNode(id NodeID) bool {
	if _, ok := m.overlay[id]; ok {
		return true
	}
	return m.cols.find(id) >= 0
}

// WithNode returns a new map holding m's content with n added (or, for an
// existing ID, replaced), leaving m untouched — the persistent write behind
// the store's read views. The result shares m's columns, ways and relations
// and copies only the small overlay, so its cost is bounded by
// compactMinPending, not by the map's size; once the overlay reaches that
// count it folds into fresh columns. Its generation is m's plus one. n must
// carry an ID and is stored by reference.
func (m *Map) WithNode(n *Node) *Map {
	out := &Map{
		Name:      m.Name,
		Frame:     m.Frame,
		cols:      m.cols,
		overlay:   make(map[NodeID]*Node, len(m.overlay)+1),
		count:     m.count,
		ways:      m.ways,
		relations: m.relations,
		gen:       m.gen + 1,
		mapped:    m.mapped,
	}
	for id, on := range m.overlay {
		out.overlay[id] = on
	}
	if !m.hasNode(n.ID) {
		out.count++
	}
	out.overlay[n.ID] = n
	if len(out.overlay) >= compactMinPending {
		out.fold()
	}
	return out
}

// Node returns the node with the given ID, or nil. The result is a view:
// reading it is always safe, but writes to it never reach the map — use
// WithNode (same ID) to derive a map with the node replaced.
func (m *Map) Node(id NodeID) *Node {
	if n, ok := m.overlay[id]; ok {
		return n
	}
	if i := m.cols.find(id); i >= 0 {
		return m.cols.node(i)
	}
	return nil
}

// Way returns the way with the given ID, or nil.
func (m *Map) Way(id WayID) *Way { return m.ways[id] }

// NodeCount returns the number of nodes.
func (m *Map) NodeCount() int { return m.count }

// WayCount returns the number of ways.
func (m *Map) WayCount() int { return len(m.ways) }

// RelationCount returns the number of relations.
func (m *Map) RelationCount() int { return len(m.relations) }

// Nodes calls fn for each node in ascending ID order. Returning false stops
// the iteration. The walk is O(n): the packed columns are sorted by
// construction, so only the (small, fold-bounded) overlay is sorted per
// call — never the full key set. fn receives views; it must not retain
// assumptions of pointer identity across walks.
func (m *Map) Nodes(fn func(*Node) bool) {
	cols, ov := m.cols, m.sortedOverlay()
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

// sortedOverlay returns the overlay's nodes sorted by ID.
func (m *Map) sortedOverlay() []*Node {
	if len(m.overlay) == 0 {
		return nil
	}
	ov := make([]*Node, 0, len(m.overlay))
	for _, n := range m.overlay {
		ov = append(ov, n)
	}
	sort.Slice(ov, func(i, j int) bool { return ov[i].ID < ov[j].ID })
	return ov
}

// Ways calls fn for each way in ascending ID order.
func (m *Map) Ways(fn func(*Way) bool) {
	ids := make([]WayID, 0, len(m.ways))
	for id := range m.ways {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if !fn(m.ways[id]) {
			return
		}
	}
}

// Relations calls fn for each relation in ascending ID order.
func (m *Map) Relations(fn func(*Relation) bool) {
	ids := make([]RelationID, 0, len(m.relations))
	for id := range m.relations {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if !fn(m.relations[id]) {
			return
		}
	}
}

// WayNodes resolves a way's node IDs to nodes (views), skipping dangling
// references (a Builder refuses them, but a decoded snapshot may carry
// them).
func (m *Map) WayNodes(w *Way) []*Node {
	out := make([]*Node, 0, len(w.NodeIDs))
	for _, id := range w.NodeIDs {
		if n := m.Node(id); n != nil {
			out = append(out, n)
		}
	}
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
	cols, ov := m.cols, m.sortedOverlay()
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
