package osm

import "fmt"

// Builder constructs a Map: world generation, XML import, the streaming
// importer and the centralized merge add elements to it, and Build hands
// back the finished, immutable map. A Builder is for one goroutine and one
// Build; it must not be used after Build.
type Builder struct {
	// m is the map under construction; nothing else sees it before Build.
	m        *Map
	nextNode NodeID
	nextWay  WayID
	nextRel  RelationID
}

// NewBuilder starts an empty map.
func NewBuilder(name string, frame Frame) *Builder {
	return newBuilderFromColumns(name, frame, emptyColumns())
}

// newBuilderFromColumns seeds a builder with a prebuilt packed block (the
// streaming importer's sorted node phase); node IDs it allocates continue
// after the block's last.
func newBuilderFromColumns(name string, frame Frame, cols *columns) *Builder {
	m := newMapFromColumns(name, frame, cols, make(map[WayID]*Way), make(map[RelationID]*Relation))
	m.overlay = make(map[NodeID]*Node)
	b := &Builder{m: m}
	if n := cols.len(); n > 0 {
		b.nextNode = NodeID(cols.ids[n-1])
	}
	return b
}

// AddNode inserts a node, allocating an ID if n.ID is zero, and returns the
// ID. The node is stored by reference (until a fold packs it into the
// columns); adding an existing ID replaces that node.
func (b *Builder) AddNode(n *Node) NodeID {
	m := b.m
	if n.ID == 0 {
		b.nextNode++
		n.ID = b.nextNode
	} else if n.ID > b.nextNode {
		b.nextNode = n.ID
	}
	if !m.hasNode(n.ID) {
		m.count++
	}
	m.overlay[n.ID] = n
	m.gen++
	// Fold once the overlay has grown to a fixed fraction of the packed
	// block, so a bulk load of n nodes pays O(n) total rebuild work
	// amortized (geometric growth), not O(n²).
	if pending := len(m.overlay); pending >= compactMinPending && pending*4 >= m.cols.len() {
		m.fold()
		m.overlay = make(map[NodeID]*Node)
	}
	return n.ID
}

// AddWay inserts a way, allocating an ID if w.ID is zero. All referenced
// nodes must already exist.
func (b *Builder) AddWay(w *Way) (WayID, error) {
	for _, nid := range w.NodeIDs {
		if !b.m.hasNode(nid) {
			return 0, fmt.Errorf("osm: way references missing node %d", nid)
		}
	}
	if w.ID == 0 {
		b.nextWay++
		w.ID = b.nextWay
	} else if w.ID > b.nextWay {
		b.nextWay = w.ID
	}
	b.m.ways[w.ID] = w
	b.m.gen++
	return w.ID, nil
}

// AddRelation inserts a relation, allocating an ID if r.ID is zero.
func (b *Builder) AddRelation(r *Relation) RelationID {
	if r.ID == 0 {
		b.nextRel++
		r.ID = b.nextRel
	} else if r.ID > b.nextRel {
		b.nextRel = r.ID
	}
	b.m.relations[r.ID] = r
	b.m.gen++
	return r.ID
}

// Build folds the pending nodes into the columns and returns the map, its
// Generation the number of successful adds.
func (b *Builder) Build() *Map {
	m := b.m
	b.m = nil
	m.fold()
	return m
}
