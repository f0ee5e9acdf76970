//go:build linux || darwin

package osm

import (
	"bytes"
	"os"
	"syscall"
)

// loadSnapshotMapped memory-maps path and, for v2 snapshots on a
// little-endian host, aliases the column sections zero-copy into the
// returned map. ok=false means "not handled here — use the portable read
// path" (not a v2 file, empty file, mmap failure, big-endian host); ok=true
// with a non-nil error is a real v2 parse failure.
//
// The mapping is pinned by the returned Map (m.mapped) for the life of the
// process: views handed out by Node()/Nodes() carry strings that alias the
// mapping, and those may outlive the Map itself, so the mapping is never
// unmapped.
func loadSnapshotMapped(path string) (*Map, map[NodeID]uint64, *IndexData, bool, error) {
	if !hostLittleEndian {
		return nil, nil, nil, false, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, false, nil
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || st.Size() == 0 || st.Size() != int64(int(st.Size())) {
		return nil, nil, nil, false, nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, nil, false, nil
	}
	br := bytes.NewReader(data)
	if version, err := readVersion(br); err != nil || version != snapshotV2 {
		syscall.Munmap(data)
		return nil, nil, nil, false, nil
	}
	base := int64(len(data)) - int64(br.Len())
	m, vers, idx, err := decodeV2(data[base:], base, true)
	if err != nil {
		syscall.Munmap(data)
		return nil, nil, nil, true, err
	}
	m.mapped = data
	return m, vers, idx, true, nil
}
