package osm

import (
	"bytes"
	"testing"

	"openflame/internal/geo"
)

// FuzzReadOSMXML throws hostile bytes at both OSM XML readers — ReadXML
// (flame-server -map) and the streaming ImportExtract (flame-worldgen
// -import). Neither may panic, and a map either accepts must be whole:
// every walked node found by ID, the walk as long as NodeCount, and every
// way's node references resolving. Seeds: a geodetic and a local-frame
// document, truncations of each, and an empty document; they run as
// ordinary tests under `go test`.
func FuzzReadOSMXML(f *testing.F) {
	lb := NewBuilder("grocery", Frame{Kind: FrameLocal,
		Anchor: geo.LatLng{Lat: 40.44, Lng: -79.99}, AnchorBearingDeg: 15})
	a := lb.AddNode(&Node{Local: geo.Point{X: 12.5, Y: -3.25}, Tags: Tags{TagProduct: "seaweed"}})
	b := lb.AddNode(&Node{Local: geo.Point{X: 2, Y: 7}})
	if _, err := lb.AddWay(&Way{NodeIDs: []NodeID{a, b}, Tags: Tags{TagHighway: "corridor"}}); err != nil {
		f.Fatal(err)
	}
	local := lb.Build()
	for _, m := range []*Map{geodeticMap(f), local} {
		var buf bytes.Buffer
		if err := m.WriteXML(&buf); err != nil {
			f.Fatal(err)
		}
		seed := buf.Bytes()
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-1])
	}
	f.Add([]byte(`<?xml version="1.0" encoding="UTF-8"?>` + "\n<osm></osm>"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := ReadXML(bytes.NewReader(data)); err == nil {
			checkWhole(t, "ReadXML", m)
		}
		if m, _, err := ImportExtract(bytes.NewReader(data), ImportOptions{}); err == nil {
			checkWhole(t, "ImportExtract", m)
		}
	})
}

// checkWhole fails t unless m's node walk, node lookups, NodeCount and way
// references all agree.
func checkWhole(t *testing.T, reader string, m *Map) {
	t.Helper()
	walked := 0
	m.Nodes(func(n *Node) bool {
		if m.Node(n.ID) == nil {
			t.Fatalf("%s: node %d walked but not found", reader, n.ID)
		}
		walked++
		return true
	})
	if walked != m.NodeCount() {
		t.Fatalf("%s: walked %d nodes, NodeCount says %d", reader, walked, m.NodeCount())
	}
	m.Ways(func(w *Way) bool {
		for _, id := range w.NodeIDs {
			if m.Node(id) == nil {
				t.Fatalf("%s: way %d references missing node %d", reader, w.ID, id)
			}
		}
		return true
	})
}
