//go:build linux || darwin

package osm

import (
	"os"
	"syscall"
)

// mapFile memory-maps path read-only for LoadSnapshotFileIndexed. It
// returns nil bytes and no error when the file should be read instead: a
// big-endian host (its columns are copied out, so a mapping saves
// nothing), an empty or oversized file, or a failed mmap.
//
// A successful load pins the mapping on its Map (m.mapped) for the life of
// the process: views handed out by Node()/Nodes() carry strings that alias
// the mapping, and those may outlive the Map itself, so it is never
// unmapped.
func mapFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !hostLittleEndian || st.Size() == 0 || st.Size() != int64(int(st.Size())) {
		return nil, nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil
	}
	return data, nil
}

// unmapFile releases a mapping no map aliases (its decode failed).
func unmapFile(data []byte) { syscall.Munmap(data) }
