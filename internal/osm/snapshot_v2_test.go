package osm

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"openflame/internal/geo"
)

// xmlBytes serializes the map to its (deterministic) XML form — a cheap
// deep-equality probe for whole maps.
func xmlBytes(t testing.TB, m *Map) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotGoldenV1Rejected: testdata/snap_v1.golden is a committed v1
// (gob) snapshot. The v1 reader is gone; the version gate must refuse the
// file cleanly — by name, on both load paths — instead of misparsing it.
func TestSnapshotGoldenV1Rejected(t *testing.T) {
	const want = "osm: unsupported snapshot version 1"
	path := filepath.Join("testdata", "snap_v1.golden")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadSnapshotIndexed(bytes.NewReader(raw)); err == nil || err.Error() != want {
		t.Fatalf("ReadSnapshotIndexed(v1 golden) = %v, want %q", err, want)
	}
	if _, _, _, err := LoadSnapshotFileIndexed(path); err == nil || err.Error() != want {
		t.Fatalf("LoadSnapshotFileIndexed(v1 golden) = %v, want %q", err, want)
	}
}

func TestSnapshotV2TruncatedAndCorrupt(t *testing.T) {
	m := snapshotFixture(t)
	var buf bytes.Buffer
	if err := m.WriteSnapshotVersionsIndexed(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) / 4, len(full) / 2, len(full) - 1} {
		if _, _, _, err := ReadSnapshotIndexed(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestLoadSnapshotFile(t *testing.T) {
	m := snapshotFixture(t)
	vers := map[NodeID]uint64{1: 7}
	dir := t.TempDir()

	v2path := filepath.Join(dir, "world.snap")
	f, err := os.Create(v2path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteSnapshotVersionsIndexed(f, vers, nil); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, gotVers, _, err := LoadSnapshotFileIndexed(v2path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(xmlBytes(t, m), xmlBytes(t, got)) {
		t.Fatal("LoadSnapshotFileIndexed(v2) differs from original")
	}
	if !reflect.DeepEqual(gotVers, vers) {
		t.Fatalf("NodeVers: got %v want %v", gotVers, vers)
	}
	// A mapped world must stay fully derivable: a WithNode write lands in
	// the overlay and folding copies out of the mapping.
	if got.Mapped() {
		next := got.WithNode(&Node{ID: 99, Local: geo.Point{X: 5, Y: 5}, Tags: Tags{TagName: "new"}})
		next.fold()
		if n := next.Node(99); n == nil || n.Tags.Get(TagName) != "new" {
			t.Fatal("write derived from a mapped world lost after the fold")
		}
	}
}

// TestSnapshotWriteLeavesMapUntouched: the writer merges the overlay into
// the columns it writes, not into the map — a served view's map is never
// compacted under its readers — and the bytes are those of a compacted
// copy.
func TestSnapshotWriteLeavesMapUntouched(t *testing.T) {
	base := snapshotFixture(t)
	added := &Node{ID: 7, Local: geo.Point{X: 5, Y: 6}, Tags: Tags{TagName: "Kiosk"}}
	replaced := &Node{ID: 2, Local: geo.Point{X: 3, Y: 4}, Tags: Tags{"shop": "grocery"}}
	served := base.WithNode(added).WithNode(replaced)
	before := served.StorageStats()
	if before.OverlayNodes == 0 {
		t.Fatal("fixture overlay is empty")
	}
	var got bytes.Buffer
	if err := served.WriteSnapshotVersionsIndexed(&got, nil, nil); err != nil {
		t.Fatal(err)
	}
	if after := served.StorageStats(); after != before {
		t.Fatalf("writing changed the map's storage: %+v, was %+v", after, before)
	}

	compacted := base.WithNode(added).WithNode(replaced)
	compacted.fold()
	var want bytes.Buffer
	if err := compacted.WriteSnapshotVersionsIndexed(&want, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("snapshot of the overlaid map differs from its compacted copy's")
	}
}

// TestDecodeUnalignedBuffer: section offsets are buffer offsets, so bytes
// that do not start 8-byte aligned are copied once into a buffer that does
// before any column aliases them.
func TestDecodeUnalignedBuffer(t *testing.T) {
	m, idx := indexFixture(t)
	var buf bytes.Buffer
	if err := m.WriteSnapshotVersionsIndexed(&buf, nil, idx); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, buf.Len()+1)
	data := raw[1:]
	copy(data, buf.Bytes())
	got, _, gotIdx, err := decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(xmlBytes(t, m), xmlBytes(t, got)) {
		t.Fatal("map decoded from an unaligned buffer differs")
	}
	checkIndexEqual(t, idx, gotIdx)
}
