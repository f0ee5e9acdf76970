package osm

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"openflame/internal/geo"
	"openflame/internal/rtree"
)

// sentinelLat is a node latitude with a distinctive bit pattern, used by
// the fingerprint test to locate the lat column inside the snapshot bytes.
const sentinelLat = 40.412345678901

// indexFixture builds a geodetic map plus a hand-made IndexData of the
// shape store.PersistedIndex would export: a point node tree, a rect
// segment tree with split payload columns, and CSR posting lists (one
// token deliberately containing a NUL byte, like the reserved portal
// token).
func indexFixture(t testing.TB) (*Map, *IndexData) {
	t.Helper()
	mb := NewBuilder("idx-town", Frame{Kind: FrameGeodetic})
	positions := []geo.LatLng{
		{Lat: sentinelLat, Lng: -79.9960},
		{Lat: 40.4410, Lng: -79.9958},
		{Lat: 40.4420, Lng: -79.9956},
		{Lat: 40.4405, Lng: -79.9950},
	}
	ids := make([]NodeID, len(positions))
	for i, pos := range positions {
		ids[i] = mb.AddNode(&Node{Pos: pos, Tags: Tags{TagName: "n"}})
	}
	if _, err := mb.AddWay(&Way{NodeIDs: ids[:3], Tags: Tags{TagHighway: "residential"}}); err != nil {
		t.Fatal(err)
	}
	m := mb.Build()

	nodeEnts := make([]rtree.Entry[NodeID], len(ids))
	bounds := geo.EmptyRect()
	for i, pos := range positions {
		r := geo.Rect{MinLat: pos.Lat, MinLng: pos.Lng, MaxLat: pos.Lat, MaxLng: pos.Lng}
		nodeEnts[i] = rtree.Entry[NodeID]{Bound: r, Item: ids[i]}
		bounds = bounds.ExpandToInclude(pos)
	}
	nodeTree := rtree.BulkLoad(nodeEnts)

	type segRef struct {
		way int64
		idx int32
	}
	var segEnts []rtree.Entry[segRef]
	for i := 1; i < 3; i++ {
		r := geo.EmptyRect().ExpandToInclude(positions[i-1]).ExpandToInclude(positions[i])
		segEnts = append(segEnts, rtree.Entry[segRef]{Bound: r, Item: segRef{way: 1, idx: int32(i - 1)}})
	}
	segTree := rtree.BulkLoad(segEnts)

	idx := &IndexData{
		Bounds:    bounds,
		NodeTree:  nodeTree.Layout(),
		NodeItems: nodeTree.Items(),
		SegTree:   segTree.Layout(),
		Tokens:    []string{"\x00portal", "cafe", "n"},
		PostOff:   []uint32{0, 1, 3, 7},
		Postings:  []NodeID{ids[3], ids[0], ids[3], ids[0], ids[1], ids[2], ids[3]},
	}
	for _, ref := range segTree.Items() {
		idx.SegWays = append(idx.SegWays, ref.way)
		idx.SegIdxs = append(idx.SegIdxs, ref.idx)
	}
	return m, idx
}

func checkIndexEqual(t *testing.T, want, got *IndexData) {
	t.Helper()
	if got == nil {
		t.Fatal("index came back nil")
	}
	if got.Bounds != want.Bounds {
		t.Fatalf("bounds: %+v != %+v", got.Bounds, want.Bounds)
	}
	if !reflect.DeepEqual(got.NodeItems, want.NodeItems) ||
		!reflect.DeepEqual(got.SegWays, want.SegWays) ||
		!reflect.DeepEqual(got.SegIdxs, want.SegIdxs) {
		t.Fatal("payload columns differ")
	}
	if !reflect.DeepEqual(got.NodeTree, want.NodeTree) ||
		!reflect.DeepEqual(got.SegTree, want.SegTree) {
		t.Fatal("tree layouts differ")
	}
	if !got.NodeTree.PointItems() {
		t.Fatal("node tree lost its point-items aliasing")
	}
	if !reflect.DeepEqual(got.Tokens, want.Tokens) ||
		!reflect.DeepEqual(got.PostOff, want.PostOff) ||
		!reflect.DeepEqual(got.Postings, want.Postings) {
		t.Fatal("inverted index differs")
	}
}

func TestSnapshotIndexRoundTrip(t *testing.T) {
	m, idx := indexFixture(t)
	var buf bytes.Buffer
	if err := m.WriteSnapshotVersionsIndexed(&buf, map[NodeID]uint64{2: 7}, idx); err != nil {
		t.Fatal(err)
	}

	m2, vers, idx2, err := ReadSnapshotIndexed(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(xmlBytes(t, m), xmlBytes(t, m2)) {
		t.Fatal("map changed through indexed round-trip")
	}
	if vers[2] != 7 {
		t.Fatalf("node versions lost: %v", vers)
	}
	checkIndexEqual(t, idx, idx2)

	// The same bytes through the file loader (mmap path on this platform).
	path := filepath.Join(t.TempDir(), "idx.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m3, vers3, idx3, err := LoadSnapshotFileIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	if vers3[2] != 7 {
		t.Fatalf("node versions lost on file path: %v", vers3)
	}
	checkIndexEqual(t, idx, idx3)
	if m3.NodeCount() != m.NodeCount() {
		t.Fatalf("node count: %d != %d", m3.NodeCount(), m.NodeCount())
	}
}

func TestSnapshotWithoutIndexReadsNil(t *testing.T) {
	m, _ := indexFixture(t)
	var buf bytes.Buffer
	if err := m.WriteSnapshotVersionsIndexed(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	m2, _, idx, err := ReadSnapshotIndexed(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if idx != nil {
		t.Fatal("plain v2 snapshot produced an index")
	}
	if m2.NodeCount() != m.NodeCount() {
		t.Fatal("map did not survive")
	}
}

// TestSnapshotIndexedReadableByPlainReaders: the index tail rides after
// the v2 trailer, so the indexed file decodes to the very map its plain
// counterpart does — the tail adds an index, never changes the map.
func TestSnapshotIndexedReadableByPlainReaders(t *testing.T) {
	m, idx := indexFixture(t)
	var plain, indexed bytes.Buffer
	if err := m.WriteSnapshotVersionsIndexed(&plain, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteSnapshotVersionsIndexed(&indexed, nil, idx); err != nil {
		t.Fatal(err)
	}
	mPlain, _, _, err := ReadSnapshotIndexed(&plain)
	if err != nil {
		t.Fatal(err)
	}
	mIndexed, _, _, err := ReadSnapshotIndexed(&indexed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(xmlBytes(t, mPlain), xmlBytes(t, mIndexed)) {
		t.Fatal("indexed snapshot decodes to a different map than the plain one")
	}
}

// TestSnapshotIndexFingerprintMismatch edits a node latitude in place —
// the map still parses (it is a well-formed float) but the node/way
// sections no longer match the fingerprint the index was built against,
// so the index must be dropped and the load must still succeed.
func TestSnapshotIndexFingerprintMismatch(t *testing.T) {
	m, idx := indexFixture(t)
	var buf bytes.Buffer
	if err := m.WriteSnapshotVersionsIndexed(&buf, nil, idx); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	var pat [8]byte
	binary.LittleEndian.PutUint64(pat[:], math.Float64bits(sentinelLat))
	i := bytes.Index(raw, pat[:])
	if i < 0 {
		t.Fatal("sentinel latitude not found in snapshot bytes")
	}
	raw[i] ^= 0x01 // nudge the mantissa: still a valid latitude

	m2, _, idx2, err := ReadSnapshotIndexed(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("edited snapshot must still load: %v", err)
	}
	if idx2 != nil {
		t.Fatal("stale index served despite fingerprint mismatch")
	}
	if m2.NodeCount() != m.NodeCount() {
		t.Fatal("map did not survive the edit")
	}

	// Same through the mmap path.
	path := filepath.Join(t.TempDir(), "stale.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, idx3, err := LoadSnapshotFileIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	if idx3 != nil {
		t.Fatal("stale index served on the mmap path")
	}
}

// TestSnapshotIndexCorruptTailFallsBack: damage confined to the index
// tail must never fail the load — every truncation point and a garbage
// tail all degrade to "no index".
func TestSnapshotIndexCorruptTailFallsBack(t *testing.T) {
	m, idx := indexFixture(t)
	var plain, indexed bytes.Buffer
	if err := m.WriteSnapshotVersionsIndexed(&plain, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteSnapshotVersionsIndexed(&indexed, nil, idx); err != nil {
		t.Fatal(err)
	}
	tailStart := plain.Len()
	raw := indexed.Bytes()
	if !bytes.Equal(raw[:tailStart], plain.Bytes()) {
		t.Fatal("indexed snapshot does not extend the plain one byte-for-byte")
	}

	for cut := tailStart; cut < len(raw); cut += 7 {
		m2, _, idx2, err := ReadSnapshotIndexed(bytes.NewReader(raw[:cut]))
		if err != nil {
			t.Fatalf("cut at %d: load failed: %v", cut, err)
		}
		if idx2 != nil {
			t.Fatalf("cut at %d: truncated index accepted", cut)
		}
		if m2.NodeCount() != m.NodeCount() {
			t.Fatalf("cut at %d: map damaged", cut)
		}
	}

	garbage := append(append([]byte(nil), plain.Bytes()...), "not an index"...)
	_, _, idx2, err := ReadSnapshotIndexed(bytes.NewReader(garbage))
	if err != nil {
		t.Fatalf("garbage tail failed the load: %v", err)
	}
	if idx2 != nil {
		t.Fatal("garbage tail produced an index")
	}
}
