package osm_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"openflame/internal/geo"
	"openflame/internal/osm"
	"openflame/internal/store"
)

// goldenPath holds the committed bytes of an indexed v2 snapshot of
// goldenFixture: the byte layout every reader and writer is held to.
var goldenPath = filepath.Join("testdata", "snap_v2_indexed.golden")

// goldenFixture is a local-frame map with node and way tags, a relation,
// and a per-node update version — every section kind snapshot v2 writes.
func goldenFixture(t testing.TB) (*osm.Map, map[osm.NodeID]uint64) {
	t.Helper()
	mb := osm.NewBuilder("golden-town", osm.Frame{Kind: osm.FrameLocal,
		Anchor: geo.LatLng{Lat: 40.4433, Lng: -79.9436}, AnchorBearingDeg: 17.5})
	a := mb.AddNode(&osm.Node{Local: geo.Point{X: 0, Y: 0}, Tags: osm.Tags{osm.TagName: "Entrance", "door": "main"}})
	b := mb.AddNode(&osm.Node{Local: geo.Point{X: 12.5, Y: 3}, Tags: osm.Tags{osm.TagName: "Roasted Seaweed", "shop": "grocery"}})
	c := mb.AddNode(&osm.Node{Local: geo.Point{X: 12.5, Y: 18}})
	d := mb.AddNode(&osm.Node{Local: geo.Point{X: -4, Y: 18}, Tags: osm.Tags{osm.TagName: "Checkout"}})
	if _, err := mb.AddWay(&osm.Way{NodeIDs: []osm.NodeID{a, b, c}, Tags: osm.Tags{osm.TagHighway: "corridor", osm.TagName: "Aisle 1"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := mb.AddWay(&osm.Way{NodeIDs: []osm.NodeID{c, d}}); err != nil {
		t.Fatal(err)
	}
	mb.AddRelation(&osm.Relation{Members: []osm.Member{
		{Type: osm.MemberWay, Ref: 1, Role: "main"},
		{Type: osm.MemberNode, Ref: int64(d), Role: "exit"},
	}, Tags: osm.Tags{"type": "route"}})
	// One version and one relation tag: the trailer gob-encodes both maps
	// in map iteration order, so more entries would make the bytes vary.
	return mb.Build(), map[osm.NodeID]uint64{d: 9}
}

func goldenXML(t *testing.T, m *osm.Map) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotGoldenV2Indexed holds the writer to the committed bytes and
// both byte sources — the streamed reader and the file loader — to the
// fixture they encode, down to an index that attaches.
func TestSnapshotGoldenV2Indexed(t *testing.T) {
	m, vers := goldenFixture(t)
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteSnapshotVersionsIndexed(&buf, vers, store.New(m).PersistedIndex()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("writer output (%d bytes) differs from %s (%d bytes)", buf.Len(), goldenPath, len(golden))
	}

	want := goldenXML(t, m)
	for how, load := range map[string]func() (*osm.Map, map[osm.NodeID]uint64, *osm.IndexData, error){
		"stream": func() (*osm.Map, map[osm.NodeID]uint64, *osm.IndexData, error) {
			return osm.ReadSnapshotIndexed(bytes.NewReader(golden))
		},
		"file": func() (*osm.Map, map[osm.NodeID]uint64, *osm.IndexData, error) {
			return osm.LoadSnapshotFileIndexed(goldenPath)
		},
	} {
		got, gotVers, idx, err := load()
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		if !bytes.Equal(goldenXML(t, got), want) {
			t.Fatalf("%s: decoded map differs from the fixture", how)
		}
		if !reflect.DeepEqual(gotVers, vers) {
			t.Fatalf("%s: versions %v, want %v", how, gotVers, vers)
		}
		if idx == nil {
			t.Fatalf("%s: persisted index dropped", how)
		}
		if _, err := store.NewWithIndex(got, idx); err != nil {
			t.Fatalf("%s: index does not attach: %v", how, err)
		}
	}
}
