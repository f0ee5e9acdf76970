package osm

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strconv"

	"openflame/internal/geo"
)

// Streaming OSM-extract importer. Real-city extracts run to millions of
// nodes; decoding one into the xmlOSM document (ReadXML) would materialize
// every element as heap objects before the first node lands in the map.
// ImportExtract instead walks the xml.Decoder token stream SAX-style —
// one element in flight at a time — and appends kept nodes straight into
// a columnar builder, so peak memory is the packed result plus O(1)
// parser state, independent of document size.

// ImportOptions configures ImportExtract.
type ImportOptions struct {
	// Name becomes the imported map's name ("osm-import" when empty).
	Name string
	// BBox, when non-zero, clips the extract: nodes outside the box are
	// dropped, except that a way keeping at least one in-box node retains
	// its out-of-box references (materialized untagged, so way geometry
	// survives at the clip edge). The zero Rect imports everything.
	BBox geo.Rect
}

// ImportStats reports what a streaming import read and kept.
type ImportStats struct {
	NodesRead     int `json:"nodes_read"`
	NodesKept     int `json:"nodes_kept"`
	WaysRead      int `json:"ways_read"`
	WaysKept      int `json:"ways_kept"`
	RelationsRead int `json:"relations_read"`
	RelationsKept int `json:"relations_kept"`
	// EdgeNodes counts out-of-bbox nodes pulled back in (untagged)
	// because a kept way references them.
	EdgeNodes int `json:"edge_nodes"`
	// DroppedRefs counts way references to nodes absent from the extract
	// entirely; such refs are removed from the way.
	DroppedRefs int `json:"dropped_refs"`
}

// spillTable remembers the coordinates of clipped-away nodes — three
// parallel columns, not per-node objects — so a way crossing the bbox
// edge can materialize the references it needs.
type spillTable struct {
	ids      []int64 // ascending for the sorted input prefix
	lat, lng []float64
	sorted   bool
}

func (s *spillTable) add(id int64, lat, lng float64) {
	if n := len(s.ids); n > 0 && s.ids[n-1] >= id {
		s.sorted = false
	}
	s.ids = append(s.ids, id)
	s.lat = append(s.lat, lat)
	s.lng = append(s.lng, lng)
}

func (s *spillTable) finish() {
	if s.sorted {
		return
	}
	idx := make([]int, len(s.ids))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.ids[idx[a]] < s.ids[idx[b]] })
	ids := make([]int64, len(idx))
	lat := make([]float64, len(idx))
	lng := make([]float64, len(idx))
	for i, j := range idx {
		ids[i], lat[i], lng[i] = s.ids[j], s.lat[j], s.lng[j]
	}
	s.ids, s.lat, s.lng, s.sorted = ids, lat, lng, true
}

func (s *spillTable) find(id int64) (geo.LatLng, bool) {
	i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= id })
	if i < len(s.ids) && s.ids[i] == id {
		return geo.LatLng{Lat: s.lat[i], Lng: s.lng[i]}, true
	}
	return geo.LatLng{}, false
}

// ImportExtract streams an OSM XML extract into a geodetic Map.
//
// Extracts list nodes before ways before relations, with IDs ascending
// within each type (the order every mainstream extract tool emits); nodes
// arriving out of order are still handled, through the builder's overlay
// instead of the packed fast path.
func ImportExtract(r io.Reader, opts ImportOptions) (*Map, *ImportStats, error) {
	name := opts.Name
	if name == "" {
		name = "osm-import"
	}
	clip := opts.BBox != (geo.Rect{})
	stats := &ImportStats{}

	b := newColBuilder(0, nil)
	var overflow []*Node // out-of-order node IDs; rare, absorbed by the overlay
	spill := spillTable{sorted: true}
	var mb *Builder // seeded after the node phase

	// finishNodes seeds the map builder with the packed block; ways and
	// relations resolve against it.
	finishNodes := func() {
		if mb != nil {
			return
		}
		spill.finish()
		mb = newBuilderFromColumns(name, Frame{Kind: FrameGeodetic}, b.finish())
		for _, n := range overflow {
			mb.AddNode(n)
		}
		overflow = nil
	}

	dec := xml.NewDecoder(r)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("osm: import: %w", err)
		}
		se, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		switch se.Name.Local {
		case "node":
			if mb != nil {
				// Node after the way/relation phase began: treat like an
				// out-of-order node.
				n, err := decodeNodeElement(dec, &se)
				if err != nil {
					return nil, nil, err
				}
				stats.NodesRead++
				if !clip || opts.BBox.Contains(n.Pos) {
					stats.NodesKept++
					mb.AddNode(n)
				} else {
					spill.add(int64(n.ID), n.Pos.Lat, n.Pos.Lng)
					spill.finish()
				}
				continue
			}
			n, err := decodeNodeElement(dec, &se)
			if err != nil {
				return nil, nil, err
			}
			stats.NodesRead++
			if clip && !opts.BBox.Contains(n.Pos) {
				spill.add(int64(n.ID), n.Pos.Lat, n.Pos.Lng)
				continue
			}
			stats.NodesKept++
			if c := b.c; len(c.ids) > 0 && c.ids[len(c.ids)-1] >= int64(n.ID) {
				overflow = append(overflow, n)
			} else {
				b.add(n.ID, n.Pos, geo.Point{}, n.Tags)
			}
		case "way":
			finishNodes()
			w, err := decodeWayElement(dec, &se)
			if err != nil {
				return nil, nil, err
			}
			stats.WaysRead++
			// Keep the way if any reference is an in-box node; pull edge
			// references back from the spill table, drop truly-unknown ones.
			anyKept := false
			for _, ref := range w.NodeIDs {
				if mb.m.hasNode(ref) {
					anyKept = true
					break
				}
			}
			if !anyKept {
				continue
			}
			refs := w.NodeIDs[:0]
			for _, ref := range w.NodeIDs {
				if mb.m.hasNode(ref) {
					refs = append(refs, ref)
					continue
				}
				if pos, ok := spill.find(int64(ref)); ok {
					mb.AddNode(&Node{ID: ref, Pos: pos})
					stats.EdgeNodes++
					refs = append(refs, ref)
					continue
				}
				stats.DroppedRefs++
			}
			if len(refs) < 2 {
				continue
			}
			w.NodeIDs = refs
			if _, err := mb.AddWay(w); err != nil {
				return nil, nil, err
			}
			stats.WaysKept++
		case "relation":
			finishNodes()
			rel, err := decodeRelationElement(dec, &se)
			if err != nil {
				return nil, nil, err
			}
			stats.RelationsRead++
			// Keep members whose referent survived the clip.
			kept := rel.Members[:0]
			for _, mem := range rel.Members {
				switch mem.Type {
				case MemberNode:
					if mb.m.hasNode(NodeID(mem.Ref)) {
						kept = append(kept, mem)
					}
				case MemberWay:
					if mb.m.Way(WayID(mem.Ref)) != nil {
						kept = append(kept, mem)
					}
				default:
					kept = append(kept, mem)
				}
			}
			if len(kept) == 0 {
				continue
			}
			rel.Members = kept
			mb.AddRelation(rel)
			stats.RelationsKept++
		}
	}
	finishNodes()
	return mb.Build(), stats, nil
}

// decodeNodeElement consumes one <node> element from the token stream.
func decodeNodeElement(dec *xml.Decoder, se *xml.StartElement) (*Node, error) {
	n := &Node{}
	for _, a := range se.Attr {
		var err error
		switch a.Name.Local {
		case "id":
			var id int64
			id, err = strconv.ParseInt(a.Value, 10, 64)
			n.ID = NodeID(id)
		case "lat":
			n.Pos.Lat, err = strconv.ParseFloat(a.Value, 64)
		case "lon":
			n.Pos.Lng, err = strconv.ParseFloat(a.Value, 64)
		}
		if err != nil {
			return nil, fmt.Errorf("osm: import: node attr %s: %w", a.Name.Local, err)
		}
	}
	if n.ID == 0 {
		return nil, fmt.Errorf("osm: import: node without id")
	}
	tags, err := consumeTags(dec, se.Name.Local, nil)
	if err != nil {
		return nil, err
	}
	n.Tags = tags
	return n, nil
}

// decodeWayElement consumes one <way> element.
func decodeWayElement(dec *xml.Decoder, se *xml.StartElement) (*Way, error) {
	w := &Way{}
	for _, a := range se.Attr {
		if a.Name.Local == "id" {
			id, err := strconv.ParseInt(a.Value, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("osm: import: way id: %w", err)
			}
			w.ID = WayID(id)
		}
	}
	tags, err := consumeTags(dec, se.Name.Local, func(child *xml.StartElement) error {
		if child.Name.Local != "nd" {
			return nil
		}
		for _, a := range child.Attr {
			if a.Name.Local == "ref" {
				ref, err := strconv.ParseInt(a.Value, 10, 64)
				if err != nil {
					return fmt.Errorf("osm: import: nd ref: %w", err)
				}
				w.NodeIDs = append(w.NodeIDs, NodeID(ref))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	w.Tags = tags
	return w, nil
}

// decodeRelationElement consumes one <relation> element.
func decodeRelationElement(dec *xml.Decoder, se *xml.StartElement) (*Relation, error) {
	rel := &Relation{}
	for _, a := range se.Attr {
		if a.Name.Local == "id" {
			id, err := strconv.ParseInt(a.Value, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("osm: import: relation id: %w", err)
			}
			rel.ID = RelationID(id)
		}
	}
	tags, err := consumeTags(dec, se.Name.Local, func(child *xml.StartElement) error {
		if child.Name.Local != "member" {
			return nil
		}
		var mem Member
		for _, a := range child.Attr {
			switch a.Name.Local {
			case "type":
				switch a.Value {
				case "node":
					mem.Type = MemberNode
				case "way":
					mem.Type = MemberWay
				case "relation":
					mem.Type = MemberRelation
				}
			case "ref":
				ref, err := strconv.ParseInt(a.Value, 10, 64)
				if err != nil {
					return fmt.Errorf("osm: import: member ref: %w", err)
				}
				mem.Ref = ref
			case "role":
				mem.Role = a.Value
			}
		}
		rel.Members = append(rel.Members, mem)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rel.Tags = tags
	return rel, nil
}

// consumeTags walks an element's children until its end tag, collecting
// <tag k v> pairs and handing every other child StartElement to onChild
// (children of children are skipped wholesale).
func consumeTags(dec *xml.Decoder, parent string, onChild func(*xml.StartElement) error) (Tags, error) {
	var tags Tags
	depth := 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("osm: import: unterminated <%s>: %w", parent, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if depth == 0 {
				if t.Name.Local == "tag" {
					var k, v string
					for _, a := range t.Attr {
						switch a.Name.Local {
						case "k":
							k = a.Value
						case "v":
							v = a.Value
						}
					}
					if k != "" {
						if tags == nil {
							tags = Tags{}
						}
						tags[k] = v
					}
				} else if onChild != nil {
					if err := onChild(&t); err != nil {
						return nil, err
					}
				}
			}
			depth++
		case xml.EndElement:
			if depth == 0 {
				return tags, nil
			}
			depth--
		}
	}
}
