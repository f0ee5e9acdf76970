package osm

import (
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
// 8-byte-aligned little-endian sections with lengths up front. Every
// snapshot decodes through one function, decode, over the whole file's
// bytes, which come from one of two sources: LoadSnapshotFileIndexed
// (mmap where the platform allows, else one read of the file) and
// ReadSnapshotIndexed (any reader, read to its end). On little-endian
// hosts the decoded columns, strings and index sections alias those bytes
// in place; big-endian hosts copy the numeric columns out. The one writer,
// WriteSnapshotVersionsIndexed, never modifies the map it writes. Version
// 1, a gob document of per-node structs, is no longer read or written; a
// v1 file is refused by the version gate.

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

// ReadSnapshotIndexed reads r to its end and decodes the snapshot it
// holds: the map, its persisted per-node update versions (nil when it
// carries none; feed them to store.Store.RestoreNodeVersions) and its
// persisted serving index (nil when absent, stale or corrupt, so the
// caller rebuilds; see store.NewWithIndex). The returned map aliases the
// bytes read, which stay alive as long as it does.
func ReadSnapshotIndexed(r io.Reader) (*Map, map[NodeID]uint64, *IndexData, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("osm: snapshot read: %w", err)
	}
	return decode(data)
}

// LoadSnapshotFileIndexed is ReadSnapshotIndexed over a file. On Unix
// little-endian hosts the file is memory-mapped, so columns, strings and
// index sections alias the page cache: loading costs no copies and no
// page faults beyond what serving touches. Elsewhere, or when the mapping
// fails, the file is read into one buffer the map then aliases.
func LoadSnapshotFileIndexed(path string) (*Map, map[NodeID]uint64, *IndexData, error) {
	data, err := mapFile(path)
	mapped := data != nil
	if !mapped && err == nil {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	m, vers, idx, err := decode(data)
	if err != nil {
		if mapped {
			unmapFile(data)
		}
		return nil, nil, nil, err
	}
	if mapped {
		m.mapped = data
	}
	return m, vers, idx, nil
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

// Mapped reports whether the map's columns alias a memory-mapped snapshot.
func (m *Map) Mapped() bool { return m.mapped != nil }
