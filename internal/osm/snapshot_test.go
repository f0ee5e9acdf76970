package osm

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"openflame/internal/geo"
)

func snapshotFixture(t testing.TB) *Map {
	mb := NewBuilder("snap-town", Frame{Kind: FrameLocal,
		Anchor: geo.LatLng{Lat: 40.44, Lng: -79.99}, AnchorBearingDeg: 12})
	a := mb.AddNode(&Node{Local: geo.Point{X: 1, Y: 2}, Tags: Tags{TagName: "A"}})
	b := mb.AddNode(&Node{Local: geo.Point{X: 3, Y: 4}})
	if _, err := mb.AddWay(&Way{NodeIDs: []NodeID{a, b}, Tags: Tags{TagHighway: "corridor"}}); err != nil {
		t.Fatal(err)
	}
	mb.AddRelation(&Relation{Members: []Member{{Type: MemberWay, Ref: 1, Role: "main"}},
		Tags: Tags{"type": "route"}})
	return mb.Build()
}

func TestSnapshotRoundTrip(t *testing.T) {
	m := snapshotFixture(t)
	var buf bytes.Buffer
	if err := m.WriteSnapshotVersionsIndexed(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := ReadSnapshotIndexed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "snap-town" || got.Frame.Kind != FrameLocal ||
		got.Frame.AnchorBearingDeg != 12 {
		t.Fatalf("header: %q %+v", got.Name, got.Frame)
	}
	if got.NodeCount() != 2 || got.WayCount() != 1 || got.RelationCount() != 1 {
		t.Fatalf("counts: %d %d %d", got.NodeCount(), got.WayCount(), got.RelationCount())
	}
	n := got.Node(1)
	if n.Local != (geo.Point{X: 1, Y: 2}) || n.Tags.Get(TagName) != "A" {
		t.Fatalf("node: %+v", n)
	}
	r := relationByID(got, 1)
	if len(r.Members) != 1 || r.Members[0].Role != "main" {
		t.Fatalf("relation: %+v", r)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, _, _, err := ReadSnapshotIndexed(strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSnapshotVersionCheck(t *testing.T) {
	m := snapshotFixture(t)
	var buf bytes.Buffer
	if err := m.WriteSnapshotVersionsIndexed(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	// A different version in the stream is rejected. Rewrite via the
	// internal struct to simulate a future writer.
	var snap snapshot
	dec := newTestGobDecoder(buf.Bytes())
	if err := dec.Decode(&snap); err != nil {
		t.Fatal(err)
	}
	snap.Version = 99
	var buf2 bytes.Buffer
	if err := newTestGobEncoder(&buf2).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadSnapshotIndexed(&buf2); err == nil {
		t.Fatal("future version accepted")
	}
}

func BenchmarkSnapshotVsXML(b *testing.B) {
	// Snapshot encode/decode should beat XML decisively on a larger map.
	mb := NewBuilder("bench", Frame{Kind: FrameGeodetic})
	var prev NodeID
	for i := 0; i < 2000; i++ {
		id := mb.AddNode(&Node{Pos: geo.LatLng{Lat: 40 + float64(i)*1e-5, Lng: -80},
			Tags: Tags{TagName: "node"}})
		if i > 0 {
			if _, err := mb.AddWay(&Way{NodeIDs: []NodeID{prev, id},
				Tags: Tags{TagHighway: "residential"}}); err != nil {
				b.Fatal(err)
			}
		}
		prev = id
	}
	m := mb.Build()
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := m.WriteSnapshotVersionsIndexed(&buf, nil, nil); err != nil {
				b.Fatal(err)
			}
			if _, _, _, err := ReadSnapshotIndexed(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("xml", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := m.WriteXML(&buf); err != nil {
				b.Fatal(err)
			}
			if _, err := ReadXML(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// test helpers keeping gob encoder/decoder construction in one place
func newTestGobDecoder(b []byte) *gob.Decoder        { return gob.NewDecoder(bytes.NewReader(b)) }
func newTestGobEncoder(w *bytes.Buffer) *gob.Encoder { return gob.NewEncoder(w) }

// hostileSnapshots returns two small snapshot files whose gob maps claim
// 16M entries while their bytes hold one: probe is a v1-shaped preamble
// (the retired snapshot struct with NodeVers set), trailer a valid v2 file
// whose trailer NodeVers count is inflated. Decoding either map for real
// would allocate hundreds of megabytes before reading an entry.
func hostileSnapshots(t testing.TB) (probe, trailer []byte) {
	t.Helper()
	vers := map[int64]uint64{42: 43} // one entry: count 0x01, key 0x54, value 0x2b
	var pre bytes.Buffer
	if err := newTestGobEncoder(&pre).Encode(snapshot{Version: 1, NodeVers: vers}); err != nil {
		t.Fatal(err)
	}
	mb := NewBuilder("hostile", Frame{Kind: FrameGeodetic})
	mb.AddNode(&Node{ID: 42, Pos: geo.LatLng{Lat: 40.44, Lng: -79.99}})
	m := mb.Build()
	var file, tr bytes.Buffer
	if err := m.WriteSnapshotVersionsIndexed(&file, map[NodeID]uint64{42: 43}, nil); err != nil {
		t.Fatal(err)
	}
	if err := newTestGobEncoder(&tr).Encode(v2Trailer{NodeVers: vers}); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(file.Bytes(), tr.Bytes()) {
		t.Fatal("trailer is not the file's suffix")
	}
	head := file.Bytes()[:file.Len()-tr.Len()]
	return inflateMapCount(t, pre.Bytes()), append(append([]byte(nil), head...), inflateMapCount(t, tr.Bytes())...)
}

// inflateMapCount rewrites the last message of a gob stream so its one map
// entry {42: 43} claims 1<<24 entries, fixing up the message length.
func inflateMapCount(t testing.TB, stream []byte) []byte {
	t.Helper()
	gobUint := func(b []byte) (uint64, int) {
		if b[0] < 0x80 {
			return uint64(b[0]), 1
		}
		n := int(-int8(b[0]))
		var x uint64
		for _, c := range b[1 : 1+n] {
			x = x<<8 | uint64(c)
		}
		return x, 1 + n
	}
	putUint := func(x uint64) []byte {
		if x < 0x80 {
			return []byte{byte(x)}
		}
		var be []byte
		for ; x > 0; x >>= 8 {
			be = append([]byte{byte(x)}, be...)
		}
		return append([]byte{byte(-int8(len(be)))}, be...)
	}
	last := 0
	for off := 0; off < len(stream); {
		n, w := gobUint(stream[off:])
		last = off
		off += w + int(n)
	}
	_, w := gobUint(stream[last:])
	body := stream[last+w:]
	entry := []byte{0x01, 0x54, 0x2b}
	if bytes.Count(body, entry) != 1 {
		t.Fatalf("one-entry map not found in % x", body)
	}
	body = bytes.Replace(body, entry, append(putUint(1<<24), entry[1:]...), 1)
	out := append(append([]byte(nil), stream[:last]...), putUint(uint64(len(body)))...)
	return append(out, body...)
}

// TestHostileMapCountsRejectedCheaply: a gob map count is trusted before
// its entries are read, so both gob messages a reader decodes — the
// version preamble and the v2 trailer — must reject a 16M-entry claim the
// bytes cannot back without allocating for it, from either byte source.
func TestHostileMapCountsRejectedCheaply(t *testing.T) {
	probe, trailer := hostileSnapshots(t)
	dir := t.TempDir()
	for name, data := range map[string][]byte{"probe": probe, "trailer": trailer} {
		path := filepath.Join(dir, name+".snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for how, read := range map[string]func() *Map{
			"stream": func() *Map {
				m, _, _, err := ReadSnapshotIndexed(bytes.NewReader(data))
				if err == nil {
					t.Errorf("%s: hostile count accepted", name)
				}
				return m
			},
			"file": func() *Map {
				m, _, _, err := LoadSnapshotFileIndexed(path)
				if err == nil {
					t.Errorf("%s: hostile count accepted from file", name)
				}
				return m
			},
		} {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			m := read()
			runtime.ReadMemStats(&after)
			if m != nil {
				t.Fatalf("%s (%d bytes, %s): hostile count decoded", name, len(data), how)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Fatalf("%s (%d bytes, %s): rejecting it allocated %d bytes", name, len(data), how, got)
			}
		}
	}
}
