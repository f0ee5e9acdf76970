package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"openflame/internal/geo"
	"openflame/internal/osm"
)

func TestFlagDefaultsAndRoundTrip(t *testing.T) {
	fs, o := newFlagSet("flame-worldgen")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.out != "world" || o.stores != 3 || o.blocks != 8 || o.seed != 1 {
		t.Fatalf("defaults changed: %+v", o)
	}

	fs, o = newFlagSet("flame-worldgen")
	if err := fs.Parse([]string{"-out", "/tmp/w", "-stores", "2", "-blocks", "4", "-seed", "9"}); err != nil {
		t.Fatal(err)
	}
	if o.out != "/tmp/w" || o.stores != 2 || o.blocks != 4 || o.seed != 9 {
		t.Fatalf("flags lost: %+v", o)
	}
}

// TestRunWritesWorld smoke-tests the full generation path: one city map
// plus one file per store land in the output directory.
func TestRunWritesWorld(t *testing.T) {
	dir := t.TempDir()
	o := &options{out: dir, stores: 1, blocks: 2, seed: 7}
	w, err := o.run()
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Stores) != 1 {
		t.Fatalf("generated %d stores, want 1", len(w.Stores))
	}
	for _, name := range []string{"city.osm.xml", "store-0.osm.xml"} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s not written: %v", name, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
	// The storage report runs after generation; the same stats must be
	// queryable and sane.
	st := w.Outdoor.StorageStats()
	if st.Nodes == 0 || st.BytesPerNode <= 0 || st.InternedStrings == 0 {
		t.Fatalf("storage stats degenerate: %+v", st)
	}
}

// TestRunRefusesTooManyStores: a request for more stores than the city has
// interior corners is refused with an error that says how many fit, and
// nothing is written.
func TestRunRefusesTooManyStores(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "w")
	o := &options{out: dir, stores: 2, blocks: 2, seed: 7}
	done := make(chan error, 1)
	go func() {
		_, err := o.run()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "room for 1") {
			t.Fatalf("2 stores in a 2x2-block city: err = %v, want a refusal saying 1 fits", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run with more stores than corners did not return")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("refused run created %s (%v)", dir, err)
	}
}

func TestBBoxFlagParsing(t *testing.T) {
	r, err := parseBBox("40.42, -80.02, 40.46, -79.92")
	if err != nil {
		t.Fatal(err)
	}
	if r.MinLat != 40.42 || r.MaxLng != -79.92 {
		t.Fatalf("parsed %+v", r)
	}
	for _, bad := range []string{"1,2,3", "a,b,c,d", "41,-80,40,-79"} {
		if _, err := parseBBox(bad); err == nil {
			t.Fatalf("bbox %q accepted", bad)
		}
	}
	if r, err := parseBBox(""); err != nil || r != (geo.Rect{}) {
		t.Fatalf("empty bbox: %+v %v", r, err)
	}
}

// TestRunImportWritesSnapshot smoke-tests the -import path end to end: a
// small extract streams through the importer, lands as a v2 snapshot, and
// loads back with the clip applied.
func TestRunImportWritesSnapshot(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "tiny.osm")
	doc := `<?xml version="1.0"?><osm version="0.6">
<node id="1" lat="40.43" lon="-80.00"><tag k="name" v="Kept Cafe"/><tag k="amenity" v="cafe"/></node>
<node id="2" lat="40.44" lon="-80.00"/>
<node id="3" lat="47.0" lon="-80.00"/>
<way id="1"><nd ref="1"/><nd ref="2"/><tag k="highway" v="residential"/></way>
</osm>`
	if err := os.WriteFile(src, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	o := &options{out: dir, importPath: src, bbox: "40.0,-81.0,41.0,-79.0"}
	m, stats, err := o.runImport()
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodesRead != 3 || stats.NodesKept != 2 || stats.WaysKept != 1 {
		t.Fatalf("import stats: %+v", stats)
	}
	if m.Name != "tiny" {
		t.Fatalf("default name = %q", m.Name)
	}
	loaded, _, _, err := osm.LoadSnapshotFileIndexed(filepath.Join(dir, "imported.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NodeCount() != 2 || loaded.WayCount() != 1 {
		t.Fatalf("snapshot counts: %d nodes %d ways", loaded.NodeCount(), loaded.WayCount())
	}
	if n := loaded.Node(1); n == nil || n.Tags.Get(osm.TagName) != "Kept Cafe" {
		t.Fatalf("node 1: %+v", loaded.Node(1))
	}
}
