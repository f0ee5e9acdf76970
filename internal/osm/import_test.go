package osm

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"openflame/internal/geo"
)

const importFixture = `<?xml version="1.0"?>
<osm version="0.6" generator="test">
  <node id="1" lat="40.0001" lon="-80.0001"><tag k="name" v="Inside A"/><tag k="amenity" v="cafe"/></node>
  <node id="2" lat="40.0002" lon="-80.0002"/>
  <node id="3" lat="41.5" lon="-80.0003"><tag k="name" v="Far Outside"/></node>
  <node id="4" lat="40.0004" lon="-80.0004"/>
  <way id="10"><nd ref="1"/><nd ref="2"/><tag k="highway" v="residential"/></way>
  <way id="11"><nd ref="2"/><nd ref="3"/><tag k="highway" v="residential"/></way>
  <way id="12"><nd ref="3"/><nd ref="999"/></way>
  <relation id="20">
    <member type="way" ref="10" role="main"/>
    <member type="way" ref="12" role="gone"/>
    <tag k="type" v="route"/>
  </relation>
</osm>`

func TestImportExtractNoClip(t *testing.T) {
	m, stats, err := ImportExtract(strings.NewReader(importFixture), ImportOptions{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodesRead != 4 || stats.NodesKept != 4 {
		t.Fatalf("nodes: %+v", stats)
	}
	// Way 12 references node 999 which is nowhere in the extract: the ref
	// drops, and the one-node remainder drops the way.
	if stats.WaysRead != 3 || stats.WaysKept != 2 || stats.DroppedRefs != 1 {
		t.Fatalf("ways: %+v", stats)
	}
	if n := m.Node(1); n == nil || n.Tags.Get("amenity") != "cafe" {
		t.Fatalf("node 1: %+v", m.Node(1))
	}
	if m.Way(12) != nil {
		t.Fatal("degenerate way 12 kept")
	}
	rel := relationByID(m, 20)
	if rel == nil || len(rel.Members) != 1 || rel.Members[0].Ref != 10 {
		t.Fatalf("relation: %+v", rel)
	}
}

func TestImportExtractBBoxClip(t *testing.T) {
	bbox := geo.Rect{MinLat: 39.99, MinLng: -80.01, MaxLat: 40.01, MaxLng: -79.99}
	m, stats, err := ImportExtract(strings.NewReader(importFixture), ImportOptions{Name: "x", BBox: bbox})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodesKept != 3 {
		t.Fatalf("kept %d nodes, want 3 (node 3 clipped): %+v", stats.NodesKept, stats)
	}
	// Way 11 crosses the clip edge: node 3 comes back untagged so the way
	// geometry survives.
	if stats.EdgeNodes != 1 {
		t.Fatalf("edge nodes: %+v", stats)
	}
	edge := m.Node(3)
	if edge == nil || len(edge.Tags) != 0 || edge.Pos.Lat != 41.5 {
		t.Fatalf("edge node: %+v", edge)
	}
	if m.Way(11) == nil {
		t.Fatal("edge-crossing way 11 dropped")
	}
	// Way 12 has no in-box node at all.
	if m.Way(12) != nil {
		t.Fatal("fully-outside way 12 kept")
	}
}

func TestImportExtractOutOfOrderNodes(t *testing.T) {
	doc := `<osm>
  <node id="5" lat="40.5" lon="-80.5"/>
  <node id="2" lat="40.2" lon="-80.2"><tag k="name" v="late"/></node>
  <node id="9" lat="40.9" lon="-80.9"/>
  <way id="1"><nd ref="2"/><nd ref="5"/></way>
</osm>`
	m, _, err := ImportExtract(strings.NewReader(doc), ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NodeCount() != 3 || m.WayCount() != 1 {
		t.Fatalf("counts: %d nodes %d ways", m.NodeCount(), m.WayCount())
	}
	if n := m.Node(2); n == nil || n.Tags.Get("name") != "late" {
		t.Fatalf("out-of-order node: %+v", m.Node(2))
	}
}

// writeSyntheticExtract streams count nodes (IDs ascending, a sparse grid
// around base) plus a chain way per 100 nodes to w.
func writeSyntheticExtract(w io.Writer, count int) error {
	if _, err := io.WriteString(w, `<?xml version="1.0"?><osm version="0.6">`); err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		lat := 40.0 + float64(i%1000)*0.001
		lng := -80.0 + float64(i/1000)*0.001
		if _, err := fmt.Fprintf(w,
			`<node id="%d" lat="%.6f" lon="%.6f"><tag k="name" v="POI %d"/><tag k="amenity" v="bench"/></node>`,
			i+1, lat, lng, i+1); err != nil {
			return err
		}
	}
	for i := 0; i+100 <= count; i += 100 {
		if _, err := fmt.Fprintf(w, `<way id="%d"><tag k="highway" v="path"/>`, i/100+1); err != nil {
			return err
		}
		for j := i + 1; j <= i+100; j++ {
			if _, err := fmt.Fprintf(w, `<nd ref="%d"/>`, j); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, `</way>`); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, `</osm>`)
	return err
}

// TestImportExtractConstantMemory streams a ~15MB generated extract through
// a pipe — the document never exists in memory — and clips to a bbox
// keeping a small fraction. Live heap afterwards must track the kept
// result, not the document.
func TestImportExtractConstantMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("large streamed import")
	}
	const nodes = 150_000

	var sizeProbe countingWriter
	sizeProbe.w = io.Discard
	if err := writeSyntheticExtract(&sizeProbe, nodes); err != nil {
		t.Fatal(err)
	}
	docBytes := sizeProbe.n

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	pr, pw := io.Pipe()
	go func() {
		pw.CloseWithError(writeSyntheticExtract(pw, nodes))
	}()
	// The grid spans lat 40.0–41.0 × lng -80.0..-79.85; this box keeps
	// roughly 1/50 of it.
	bbox := geo.Rect{MinLat: 40.0, MinLng: -80.01, MaxLat: 40.02, MaxLng: -79.0}
	m, stats, err := ImportExtract(pr, ImportOptions{Name: "big", BBox: bbox})
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	grow := int64(after.HeapAlloc) - int64(before.HeapAlloc)

	if stats.NodesRead != nodes {
		t.Fatalf("read %d nodes, want %d", stats.NodesRead, nodes)
	}
	if stats.NodesKept == 0 || stats.NodesKept > nodes/10 {
		t.Fatalf("bbox kept %d of %d nodes; clip not exercised", stats.NodesKept, nodes)
	}
	if m.WayCount() == 0 {
		t.Fatal("no ways survived the clip")
	}
	// Generous ceiling: well under the document itself, which a
	// materializing parser would at minimum hold.
	if grow > docBytes/2 {
		t.Fatalf("heap grew %d bytes importing a %d-byte document (kept %d nodes): not streaming",
			grow, docBytes, stats.NodesKept)
	}
	t.Logf("doc=%dB heapGrow=%dB kept=%d/%d ways=%d", docBytes, grow, stats.NodesKept, nodes, m.WayCount())
	runtime.KeepAlive(m)
}
