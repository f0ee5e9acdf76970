package osm

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"openflame/internal/geo"
)

// Binary snapshots: a compact encoding of a Map for fast server restarts,
// complementing the interoperable XML format. The format is versioned;
// readers reject unknown versions rather than misparse.
//
// Version 2 (snapshot_v2.go) serializes the columnar storage directly:
// section-aligned little-endian columns with lengths up front, so loading
// is one bulk read per column (and, via LoadSnapshotFile, an mmap +
// zero-copy alias where the platform allows). Version 1, a gob document of
// per-node structs, is no longer read or written; a v1 file is refused by
// the version gate.

const snapshotV2 = 2

// snapshot is the gob preamble every snapshot file opens with; only
// Version is ever set. The other fields (and snapNode/snapWay) are what v1
// carried inline: gob transmits the full type descriptor ahead of the
// value, so they are part of the v2 byte layout and stay. Readers never
// decode into it — see readVersion.

type snapshot struct {
	Version   int
	Name      string
	FrameKind int
	Anchor    geo.LatLng
	AnchorBrg float64
	Nodes     []snapNode
	Ways      []snapWay
	Relations []snapRelation
	NodeVers  map[int64]uint64
}

type snapNode struct {
	ID    int64
	Pos   geo.LatLng
	Local geo.Point
	Tags  map[string]string
}

type snapWay struct {
	ID      int64
	NodeIDs []int64
	Tags    map[string]string
}

type snapMember struct {
	Type int
	Ref  int64
	Role string
}

type snapRelation struct {
	ID      int64
	Members []snapMember
	Tags    map[string]string
}

// WriteSnapshot serializes the map in the current (v2) binary snapshot
// format.
func (m *Map) WriteSnapshot(w io.Writer) error {
	return m.WriteSnapshotVersions(w, nil)
}

// ReadSnapshot deserializes a map written by WriteSnapshot.
func ReadSnapshot(r io.Reader) (*Map, error) {
	m, _, err := ReadSnapshotVersions(r)
	return m, err
}

// ReadSnapshotVersions is ReadSnapshot additionally returning the
// persisted per-node update versions (nil when the snapshot carries none);
// feed them to store.Store.RestoreNodeVersions after indexing.
func ReadSnapshotVersions(r io.Reader) (*Map, map[NodeID]uint64, error) {
	m, vers, _, err := ReadSnapshotIndexed(r)
	return m, vers, err
}

// ReadSnapshotIndexed is ReadSnapshotVersions additionally returning the
// persisted serving index when the snapshot carries a valid one (nil
// otherwise — absent, stale-fingerprint, or corrupt index tails all
// degrade to nil so the caller rebuilds; see store.NewWithIndex).
//
// Every snapshot version begins with a gob message whose Version field
// names the format, so this reader always fails with a clear "unsupported
// snapshot version" on any other format — the retired v1 or one from the
// future — never a misparse.
func ReadSnapshotIndexed(r io.Reader) (*Map, map[NodeID]uint64, *IndexData, error) {
	cr := &countingReader{r: r}
	version, err := readVersion(cr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("osm: snapshot decode: %w", err)
	}
	if version != snapshotV2 {
		return nil, nil, nil, fmt.Errorf("osm: unsupported snapshot version %d", version)
	}
	base := cr.n
	rest, err := io.ReadAll(cr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("osm: snapshot v2 read: %w", err)
	}
	return decodeV2(rest, base, false)
}

// readVersion decodes the gob preamble a snapshot opens with and returns
// only its Version. Every other field of the wire value is skipped, never
// allocated: gob trusts a map's entry count before reading its entries, so
// decoding a retired v1 document (or a hostile preamble) into the full
// snapshot struct could allocate gigabytes from a hundred bytes. r must be
// an io.ByteReader so gob consumes exactly the one message.
func readVersion(r io.Reader) (int, error) {
	var probe struct{ Version int }
	if err := gob.NewDecoder(r).Decode(&probe); err != nil {
		return 0, err
	}
	return probe.Version, nil
}

// LoadSnapshotFile reads a snapshot from disk. Where the platform supports
// it and the file is v2, the column sections are memory-mapped and aliased
// zero-copy into the returned map (the mapping lives as long as the map);
// otherwise the file is read through the ordinary buffered path.
func LoadSnapshotFile(path string) (*Map, map[NodeID]uint64, error) {
	m, vers, _, err := LoadSnapshotFileIndexed(path)
	return m, vers, err
}

// LoadSnapshotFileIndexed is LoadSnapshotFile additionally returning the
// snapshot's persisted serving index, nil when absent or invalid. On the
// mmap path the index columns alias the mapping — attaching them costs no
// copies and no page faults beyond what serving touches.
func LoadSnapshotFileIndexed(path string) (*Map, map[NodeID]uint64, *IndexData, error) {
	if m, vers, idx, ok, err := loadSnapshotMapped(path); ok {
		return m, vers, idx, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	return ReadSnapshotIndexed(bufio.NewReaderSize(f, 1<<20))
}

// Mapped reports whether the map's columns alias a memory-mapped snapshot.
func (m *Map) Mapped() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.mapped != nil
}

// countingReader tracks how many bytes have been consumed — the file
// offset the section alignment of snapshot v2 is defined against. It
// implements io.ByteReader so gob consumes exactly one message instead of
// wrapping it in a bufio.Reader and over-reading into the sections.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) ReadByte() (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(c.r, b[:]); err != nil {
		return 0, err
	}
	c.n++
	return b[0], nil
}
