package osm

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadSnapshotIndexed throws hostile bytes at the one snapshot decoder
// — the same decode LoadSnapshotFileIndexed runs over a mapped file — and
// its index tail: it must never panic, and must either fail or hand
// back a map whose every column agrees with its NodeCount (walking the
// nodes and serializing them dereferences each column and both tag CSRs).
// Seeds: the plain and indexed fixtures, the retired v1 golden, and
// truncations of each, plus the two hostile map counts (preamble and
// trailer); they run as ordinary tests under `go test`.
func FuzzReadSnapshotIndexed(f *testing.F) {
	var plain, indexed bytes.Buffer
	if err := snapshotFixture(f).WriteSnapshotVersionsIndexed(&plain, map[NodeID]uint64{1: 7}, nil); err != nil {
		f.Fatal(err)
	}
	m, idx := indexFixture(f)
	if err := m.WriteSnapshotVersionsIndexed(&indexed, map[NodeID]uint64{2: 7}, idx); err != nil {
		f.Fatal(err)
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "snap_v1.golden"))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{plain.Bytes(), indexed.Bytes(), v1} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-1])
	}
	f.Add([]byte{})
	probe, trailer := hostileSnapshots(f)
	f.Add(probe)
	f.Add(trailer)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, _, idx, err := ReadSnapshotIndexed(bytes.NewReader(data))
		if err != nil {
			if m != nil || idx != nil {
				t.Fatalf("error %v alongside a non-nil result", err)
			}
			return
		}
		walked := 0
		m.Nodes(func(n *Node) bool {
			if m.Node(n.ID) == nil {
				t.Fatalf("node %d walked but not found", n.ID)
			}
			walked++
			return true
		})
		if walked != m.NodeCount() {
			t.Fatalf("walked %d nodes, NodeCount says %d", walked, m.NodeCount())
		}
		if err := m.WriteXML(io.Discard); err != nil {
			t.Fatalf("accepted snapshot does not serialize: %v", err)
		}
	})
}
