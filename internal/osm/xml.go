package osm

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"

	"openflame/internal/geo"
)

// OSM XML interchange structures. Local-frame coordinates are carried in
// flame:x/flame:y attributes so indoor maps survive a round trip; standard
// OSM tools ignore unknown attributes.

type xmlTag struct {
	K string `xml:"k,attr"`
	V string `xml:"v,attr"`
}

type xmlNode struct {
	ID   int64    `xml:"id,attr"`
	Lat  float64  `xml:"lat,attr"`
	Lon  float64  `xml:"lon,attr"`
	X    *float64 `xml:"x,attr,omitempty"`
	Y    *float64 `xml:"y,attr,omitempty"`
	Tags []xmlTag `xml:"tag"`
}

type xmlNd struct {
	Ref int64 `xml:"ref,attr"`
}

type xmlWay struct {
	ID   int64    `xml:"id,attr"`
	Nds  []xmlNd  `xml:"nd"`
	Tags []xmlTag `xml:"tag"`
}

type xmlMember struct {
	Type string `xml:"type,attr"`
	Ref  int64  `xml:"ref,attr"`
	Role string `xml:"role,attr"`
}

type xmlRelation struct {
	ID      int64       `xml:"id,attr"`
	Members []xmlMember `xml:"member"`
	Tags    []xmlTag    `xml:"tag"`
}

type xmlOSM struct {
	XMLName   xml.Name      `xml:"osm"`
	Version   string        `xml:"version,attr"`
	Generator string        `xml:"generator,attr"`
	Name      string        `xml:"flame-name,attr,omitempty"`
	Frame     string        `xml:"flame-frame,attr,omitempty"`
	AnchorLat float64       `xml:"flame-anchorlat,attr,omitempty"`
	AnchorLng float64       `xml:"flame-anchorlng,attr,omitempty"`
	AnchorBrg float64       `xml:"flame-anchorbrg,attr,omitempty"`
	Nodes     []xmlNode     `xml:"node"`
	Ways      []xmlWay      `xml:"way"`
	Relations []xmlRelation `xml:"relation"`
}

func tagsToXML(t Tags) []xmlTag {
	if len(t) == 0 {
		return nil
	}
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]xmlTag, 0, len(keys))
	for _, k := range keys {
		out = append(out, xmlTag{K: k, V: t[k]})
	}
	return out
}

func xmlToTags(x []xmlTag) Tags {
	if len(x) == 0 {
		return nil
	}
	t := make(Tags, len(x))
	for _, e := range x {
		t[e.K] = e.V
	}
	return t
}

// WriteXML serializes the map in OSM XML format.
func (m *Map) WriteXML(w io.Writer) error {
	doc := xmlOSM{
		Version:   "0.6",
		Generator: "openflame",
		Name:      m.Name,
		AnchorLat: m.Frame.Anchor.Lat,
		AnchorLng: m.Frame.Anchor.Lng,
		AnchorBrg: m.Frame.AnchorBearingDeg,
	}
	if m.Frame.Kind == FrameLocal {
		doc.Frame = "local"
	} else {
		doc.Frame = "geodetic"
	}
	m.Nodes(func(n *Node) bool {
		xn := xmlNode{ID: int64(n.ID), Lat: n.Pos.Lat, Lon: n.Pos.Lng, Tags: tagsToXML(n.Tags)}
		if m.Frame.Kind == FrameLocal {
			x, y := n.Local.X, n.Local.Y
			xn.X, xn.Y = &x, &y
		}
		doc.Nodes = append(doc.Nodes, xn)
		return true
	})
	m.Ways(func(way *Way) bool {
		xw := xmlWay{ID: int64(way.ID), Tags: tagsToXML(way.Tags)}
		for _, ref := range way.NodeIDs {
			xw.Nds = append(xw.Nds, xmlNd{Ref: int64(ref)})
		}
		doc.Ways = append(doc.Ways, xw)
		return true
	})
	m.Relations(func(rel *Relation) bool {
		xr := xmlRelation{ID: int64(rel.ID), Tags: tagsToXML(rel.Tags)}
		for _, mem := range rel.Members {
			var typ string
			switch mem.Type {
			case MemberNode:
				typ = "node"
			case MemberWay:
				typ = "way"
			case MemberRelation:
				typ = "relation"
			}
			xr.Members = append(xr.Members, xmlMember{Type: typ, Ref: mem.Ref, Role: mem.Role})
		}
		doc.Relations = append(doc.Relations, xr)
		return true
	})
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	return enc.Encode(doc)
}

// ReadXML parses an OSM XML document into a Map.
func ReadXML(r io.Reader) (*Map, error) {
	var doc xmlOSM
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("osm: parse: %w", err)
	}
	frame := Frame{
		Kind:             FrameGeodetic,
		Anchor:           geo.LatLng{Lat: doc.AnchorLat, Lng: doc.AnchorLng},
		AnchorBearingDeg: doc.AnchorBrg,
	}
	if doc.Frame == "local" {
		frame.Kind = FrameLocal
	}
	b := NewBuilder(doc.Name, frame)
	for _, xn := range doc.Nodes {
		n := &Node{
			ID:   NodeID(xn.ID),
			Pos:  geo.LatLng{Lat: xn.Lat, Lng: xn.Lon},
			Tags: xmlToTags(xn.Tags),
		}
		if xn.X != nil && xn.Y != nil {
			n.Local = geo.Point{X: *xn.X, Y: *xn.Y}
		}
		b.AddNode(n)
	}
	for _, xw := range doc.Ways {
		w := &Way{ID: WayID(xw.ID), Tags: xmlToTags(xw.Tags)}
		for _, nd := range xw.Nds {
			w.NodeIDs = append(w.NodeIDs, NodeID(nd.Ref))
		}
		if _, err := b.AddWay(w); err != nil {
			return nil, err
		}
	}
	for _, xr := range doc.Relations {
		rel := &Relation{ID: RelationID(xr.ID), Tags: xmlToTags(xr.Tags)}
		for _, mem := range xr.Members {
			var typ MemberType
			switch mem.Type {
			case "node":
				typ = MemberNode
			case "way":
				typ = MemberWay
			case "relation":
				typ = MemberRelation
			default:
				return nil, fmt.Errorf("osm: unknown member type %q", mem.Type)
			}
			rel.Members = append(rel.Members, Member{Type: typ, Ref: mem.Ref, Role: mem.Role})
		}
		b.AddRelation(rel)
	}
	return b.Build(), nil
}
