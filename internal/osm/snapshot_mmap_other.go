//go:build !linux && !darwin

package osm

// mapFile is the no-mmap stub: LoadSnapshotFileIndexed reads every file.
func mapFile(string) ([]byte, error) { return nil, nil }

func unmapFile([]byte) {}
