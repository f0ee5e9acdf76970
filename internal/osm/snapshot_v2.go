package osm

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"sort"
	"unsafe"

	"openflame/internal/geo"
)

// Snapshot v2: the columnar storage serialized as-is.
//
// Layout (all integers little-endian, sections 8-byte-aligned relative to
// the start of the file):
//
//	gob(snapshot{Version: 2})     — the version gate every reader checks
//	                                before touching a section
//	"OFSNAPB2"                    — section-format magic
//	gob(v2Header)                 — name/frame + every section length
//	ids        int64[Nodes]         sorted node IDs
//	lat,lng    float64[Nodes]       geodetic columns
//	locX,locY  float64[Nodes]       local-frame columns (HasLocal only)
//	tagOff     uint32[Nodes+1]      CSR offsets into tagPairs (pair units)
//	tagPairs   uint32[TagPairs*2]   interleaved [keyIdx, valIdx]
//	poolOff    uint32[PoolCount+1]  cumulative byte offsets into poolBlob
//	poolBlob   byte[PoolBytes]      node tag strings, concatenated
//	wayIDs     int64[Ways]          sorted way IDs
//	wayNodeOff uint32[Ways+1]       CSR offsets into wayNodeRefs
//	wayNodeRefs int64[WayRefs]      way→node references
//	wayTagOff  uint32[Ways+1]       CSR offsets into wayTagPairs (pairs)
//	wayTagPairs uint32[WayTagPairs*2]
//	wayPoolOff uint32[WayPoolCount+1]
//	wayPoolBlob byte[WayPoolBytes]  way tag strings (own small pool, so
//	                                the writer never rebuilds the node
//	                                intern table just to serialize ways)
//	gob(v2Trailer)                — relations + NodeVers (rare, stay gob)
//
// Lengths ride in the header, so a reader performs one bulk read (or one
// zero-copy alias, on the mmap path) per column — no per-node decoding.

const v2Magic = "OFSNAPB2"

type v2Header struct {
	Name         string
	FrameKind    int
	Anchor       geo.LatLng
	AnchorBrg    float64
	HasLocal     bool
	Nodes        int64
	TagPairs     int64 // [key,val] pair count (tagPairs holds 2× uint32s)
	PoolCount    int64
	PoolBytes    int64
	Ways         int64
	WayRefs      int64
	WayTagPairs  int64
	WayPoolCount int64
	WayPoolBytes int64
}

type v2Trailer struct {
	Relations []snapRelation
	NodeVers  map[int64]uint64
}

var hostLittleEndian = func() bool {
	var x uint16 = 0x0102
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// WriteSnapshotVersions serializes the map in the v2 columnar format,
// carrying per-node update versions (nil writes none). The map is
// compacted first so the columns describe every node.
func (m *Map) WriteSnapshotVersions(w io.Writer, vers map[NodeID]uint64) error {
	return m.writeV2(w, vers, nil)
}

// WriteSnapshotVersionsIndexed additionally appends the persisted serving
// index (see snapshot_index.go) after the trailer, fingerprinted against
// the node/way sections it was built from. idx nil writes a plain v2
// snapshot.
func (m *Map) WriteSnapshotVersionsIndexed(w io.Writer, vers map[NodeID]uint64, idx *IndexData) error {
	return m.writeV2(w, vers, idx)
}

func (m *Map) writeV2(w io.Writer, vers map[NodeID]uint64, idx *IndexData) error {
	m.mu.Lock()
	m.compactLocked()
	cols := m.cols
	ways := make([]*Way, 0, len(m.ways))
	for _, way := range m.ways {
		ways = append(ways, way)
	}
	rels := make([]*Relation, 0, len(m.relations))
	for _, rel := range m.relations {
		rels = append(rels, rel)
	}
	m.mu.Unlock()
	sort.Slice(ways, func(i, j int) bool { return ways[i].ID < ways[j].ID })
	sort.Slice(rels, func(i, j int) bool { return rels[i].ID < rels[j].ID })

	// Flatten ways into CSR sections with their own small string pool.
	wayIDs := make([]int64, len(ways))
	wayNodeOff := make([]uint32, 1, len(ways)+1)
	var wayNodeRefs []int64
	wayTagOff := make([]uint32, 1, len(ways)+1)
	var wayTagPairs []uint32
	var wpool []string
	wintern := make(map[string]uint32)
	intern := func(s string) uint32 {
		if i, ok := wintern[s]; ok {
			return i
		}
		i := uint32(len(wpool))
		wpool = append(wpool, s)
		wintern[s] = i
		return i
	}
	var keys []string
	for i, way := range ways {
		wayIDs[i] = int64(way.ID)
		for _, id := range way.NodeIDs {
			wayNodeRefs = append(wayNodeRefs, int64(id))
		}
		wayNodeOff = append(wayNodeOff, uint32(len(wayNodeRefs)))
		keys = keys[:0]
		for k := range way.Tags {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			wayTagPairs = append(wayTagPairs, intern(k), intern(way.Tags[k]))
		}
		wayTagOff = append(wayTagOff, uint32(len(wayTagPairs)/2))
	}

	poolOff, poolBytes, err := poolOffsets(cols.pool)
	if err != nil {
		return err
	}
	wayPoolOff, wayPoolBytes, err := poolOffsets(wpool)
	if err != nil {
		return err
	}

	h := v2Header{
		Name:         m.Name,
		FrameKind:    int(m.Frame.Kind),
		Anchor:       m.Frame.Anchor,
		AnchorBrg:    m.Frame.AnchorBearingDeg,
		HasLocal:     cols.locX != nil,
		Nodes:        int64(cols.len()),
		TagPairs:     int64(len(cols.tagPairs) / 2),
		PoolCount:    int64(len(cols.pool)),
		PoolBytes:    poolBytes,
		Ways:         int64(len(ways)),
		WayRefs:      int64(len(wayNodeRefs)),
		WayTagPairs:  int64(len(wayTagPairs) / 2),
		WayPoolCount: int64(len(wpool)),
		WayPoolBytes: wayPoolBytes,
	}

	cw := &countingWriter{w: w}
	if err := gob.NewEncoder(cw).Encode(snapshot{Version: snapshotV2}); err != nil {
		return err
	}
	if _, err := io.WriteString(cw, v2Magic); err != nil {
		return err
	}
	if err := gob.NewEncoder(cw).Encode(h); err != nil {
		return err
	}
	// Fingerprint the node/way sections as they stream out: pad first so
	// the leading alignment bytes stay outside the sum (the reader's region
	// likewise starts at the aligned first-section offset).
	if err := cw.pad(); err != nil {
		return err
	}
	cw.crc = crc32.New(castagnoli)
	fpStart := cw.n
	for _, s := range []func() error{
		func() error { return writeInt64s(cw, cols.ids) },
		func() error { return writeFloat64s(cw, cols.lat) },
		func() error { return writeFloat64s(cw, cols.lng) },
		func() error { return writeFloat64s(cw, cols.locX) },
		func() error { return writeFloat64s(cw, cols.locY) },
		func() error { return writeUint32s(cw, cols.tagOff) },
		func() error { return writeUint32s(cw, cols.tagPairs) },
		func() error { return writeUint32s(cw, poolOff) },
		func() error { return writeStrings(cw, cols.pool) },
		func() error { return writeInt64s(cw, wayIDs) },
		func() error { return writeUint32s(cw, wayNodeOff) },
		func() error { return writeInt64s(cw, wayNodeRefs) },
		func() error { return writeUint32s(cw, wayTagOff) },
		func() error { return writeUint32s(cw, wayTagPairs) },
		func() error { return writeUint32s(cw, wayPoolOff) },
		func() error { return writeStrings(cw, wpool) },
	} {
		if err := s(); err != nil {
			return err
		}
	}
	fpBytes := cw.n - fpStart
	fpSum := cw.crc.Sum32()
	cw.crc = nil

	tr := v2Trailer{}
	for _, rel := range rels {
		sr := snapRelation{ID: int64(rel.ID), Tags: rel.Tags}
		for _, mem := range rel.Members {
			sr.Members = append(sr.Members, snapMember{Type: int(mem.Type), Ref: mem.Ref, Role: mem.Role})
		}
		tr.Relations = append(tr.Relations, sr)
	}
	if len(vers) > 0 {
		tr.NodeVers = make(map[int64]uint64, len(vers))
		for id, v := range vers {
			tr.NodeVers[int64(id)] = v
		}
	}
	if err := gob.NewEncoder(cw).Encode(tr); err != nil {
		return err
	}
	if idx == nil {
		return nil
	}
	return writeIndexSections(cw, idx, fpBytes, fpSum)
}

// poolOffsets builds the cumulative byte-offset column for a string pool.
func poolOffsets(pool []string) ([]uint32, int64, error) {
	off := make([]uint32, 1, len(pool)+1)
	var n int64
	for _, s := range pool {
		n += int64(len(s))
		if n > math.MaxUint32 {
			return nil, 0, fmt.Errorf("osm: snapshot v2: string pool exceeds 4GiB")
		}
		off = append(off, uint32(n))
	}
	return off, n, nil
}

// decodeV2 parses everything after the version gob prefix. data[0] sits at
// file offset base (section alignment is defined against the file start).
// With alias set, numeric columns and pool strings alias data directly —
// the zero-copy mmap path; otherwise each section is copied out in one
// bulk operation. The third result is the persisted serving index, nil
// when the snapshot carries none (or a stale/corrupt one — see
// decodeIndexSections).
func decodeV2(data []byte, base int64, alias bool) (*Map, map[NodeID]uint64, *IndexData, error) {
	br := bytes.NewReader(data)
	var magic [len(v2Magic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != v2Magic {
		return nil, nil, nil, fmt.Errorf("osm: snapshot v2: bad section magic")
	}
	var h v2Header
	if err := gob.NewDecoder(br).Decode(&h); err != nil {
		return nil, nil, nil, fmt.Errorf("osm: snapshot v2 header: %w", err)
	}
	for _, c := range []int64{h.Nodes, h.TagPairs, h.PoolCount, h.PoolBytes,
		h.Ways, h.WayRefs, h.WayTagPairs, h.WayPoolCount, h.WayPoolBytes} {
		if c < 0 {
			return nil, nil, nil, fmt.Errorf("osm: snapshot v2: negative section length")
		}
	}

	off := int64(len(data)) - int64(br.Len())
	off += (8 - (base+off)%8) % 8
	fpStart := off
	sec := func(elems, size int64) ([]byte, error) {
		off += (8 - (base+off)%8) % 8
		nb := elems * size
		if nb < 0 || off+nb > int64(len(data)) {
			return nil, fmt.Errorf("osm: snapshot v2: truncated section")
		}
		b := data[off : off+nb : off+nb]
		off += nb
		return b, nil
	}
	var err error
	bytesFor := func(elems, size int64) []byte {
		if err != nil {
			return nil
		}
		var b []byte
		b, err = sec(elems, size)
		return b
	}

	ids := int64Col(bytesFor(h.Nodes, 8), alias)
	lat := float64Col(bytesFor(h.Nodes, 8), alias)
	lng := float64Col(bytesFor(h.Nodes, 8), alias)
	var locX, locY []float64
	if h.HasLocal {
		locX = float64Col(bytesFor(h.Nodes, 8), alias)
		locY = float64Col(bytesFor(h.Nodes, 8), alias)
	}
	tagOff := uint32Col(bytesFor(h.Nodes+1, 4), alias)
	tagPairs := uint32Col(bytesFor(h.TagPairs*2, 4), alias)
	poolOff := uint32Col(bytesFor(h.PoolCount+1, 4), alias)
	poolBlob := bytesFor(h.PoolBytes, 1)
	wayIDs := int64Col(bytesFor(h.Ways, 8), false)
	wayNodeOff := uint32Col(bytesFor(h.Ways+1, 4), false)
	wayNodeRefs := int64Col(bytesFor(h.WayRefs, 8), false)
	wayTagOff := uint32Col(bytesFor(h.Ways+1, 4), false)
	wayTagPairs := uint32Col(bytesFor(h.WayTagPairs*2, 4), false)
	wayPoolOff := uint32Col(bytesFor(h.WayPoolCount+1, 4), false)
	wayPoolBlob := bytesFor(h.WayPoolBytes, 1)
	fpEnd := off
	if err != nil {
		return nil, nil, nil, err
	}

	pool, err := poolStrings(poolOff, poolBlob, alias)
	if err != nil {
		return nil, nil, nil, err
	}
	wpool, err := poolStrings(wayPoolOff, wayPoolBlob, false)
	if err != nil {
		return nil, nil, nil, err
	}

	// Validate the invariants every later read relies on, so a corrupt
	// file fails here instead of panicking mid-query.
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return nil, nil, nil, fmt.Errorf("osm: snapshot v2: node IDs not sorted")
		}
	}
	if err := checkCSR(tagOff, int64(len(tagPairs)/2), "node tag"); err != nil {
		return nil, nil, nil, err
	}
	for _, p := range tagPairs {
		if int64(p) >= h.PoolCount {
			return nil, nil, nil, fmt.Errorf("osm: snapshot v2: tag pair index out of pool")
		}
	}
	if err := checkCSR(wayNodeOff, int64(len(wayNodeRefs)), "way ref"); err != nil {
		return nil, nil, nil, err
	}
	if err := checkCSR(wayTagOff, int64(len(wayTagPairs)/2), "way tag"); err != nil {
		return nil, nil, nil, err
	}
	for _, p := range wayTagPairs {
		if int64(p) >= h.WayPoolCount {
			return nil, nil, nil, fmt.Errorf("osm: snapshot v2: way tag index out of pool")
		}
	}

	// The trailer's maps carry gob entry counts that a decode into
	// v2Trailer would trust before reading a single entry. A discarding
	// decode first walks every entry the counts claim, so a count the bytes
	// cannot back fails here instead of allocating. bytes.Reader is an
	// io.ByteReader, so gob consumes exactly one message and trr.Len()
	// tells us where the trailer ends — anything after it is the optional
	// persisted-index tail.
	if err := gob.NewDecoder(bytes.NewReader(data[off:])).DecodeValue(reflect.Value{}); err != nil {
		return nil, nil, nil, fmt.Errorf("osm: snapshot v2 trailer: %w", err)
	}
	trr := bytes.NewReader(data[off:])
	var tr v2Trailer
	if err := gob.NewDecoder(trr).Decode(&tr); err != nil {
		return nil, nil, nil, fmt.Errorf("osm: snapshot v2 trailer: %w", err)
	}
	idxOff := int64(len(data)) - int64(trr.Len())

	cols := &columns{
		ids: ids, lat: lat, lng: lng, locX: locX, locY: locY,
		tagOff: tagOff, tagPairs: tagPairs, pool: pool,
	}
	ways := make(map[WayID]*Way, len(wayIDs))
	for i, wid := range wayIDs {
		refs := wayNodeRefs[wayNodeOff[i]:wayNodeOff[i+1]]
		nodeIDs := make([]NodeID, len(refs))
		for j, r := range refs {
			nodeIDs[j] = NodeID(r)
		}
		var tags Tags
		if lo, hi := wayTagOff[i], wayTagOff[i+1]; hi > lo {
			tags = make(Tags, hi-lo)
			for p := lo; p < hi; p++ {
				tags[wpool[wayTagPairs[2*p]]] = wpool[wayTagPairs[2*p+1]]
			}
		}
		ways[WayID(wid)] = &Way{ID: WayID(wid), NodeIDs: nodeIDs, Tags: tags}
	}
	rels := make(map[RelationID]*Relation, len(tr.Relations))
	for _, sr := range tr.Relations {
		rel := &Relation{ID: RelationID(sr.ID), Tags: sr.Tags}
		for _, mem := range sr.Members {
			rel.Members = append(rel.Members, Member{Type: MemberType(mem.Type), Ref: mem.Ref, Role: mem.Role})
		}
		rels[rel.ID] = rel
	}

	frame := Frame{
		Kind:             FrameKind(h.FrameKind),
		Anchor:           h.Anchor,
		AnchorBearingDeg: h.AnchorBrg,
	}
	m := newMapFromColumns(h.Name, frame, cols, ways, rels)
	var vers map[NodeID]uint64
	if len(tr.NodeVers) > 0 {
		vers = make(map[NodeID]uint64, len(tr.NodeVers))
		for id, v := range tr.NodeVers {
			vers[NodeID(id)] = v
		}
	}
	idx := decodeIndexSections(data, base, idxOff, alias, fpStart, fpEnd)
	return m, vers, idx, nil
}

// checkCSR validates a CSR offset column: starts at zero, nondecreasing,
// ends exactly at the arena length.
func checkCSR(off []uint32, arena int64, what string) error {
	if len(off) == 0 || off[0] != 0 || int64(off[len(off)-1]) != arena {
		return fmt.Errorf("osm: snapshot v2: %s offsets inconsistent", what)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("osm: snapshot v2: %s offsets not monotone", what)
		}
	}
	return nil
}

// poolStrings rebuilds a string pool from its offset column and blob. With
// alias set the strings alias the blob in place (mmap path); otherwise the
// blob is copied once and the strings share that single arena allocation.
func poolStrings(off []uint32, blob []byte, alias bool) ([]string, error) {
	var arena string
	if alias && len(blob) > 0 {
		arena = unsafe.String(&blob[0], len(blob))
	} else {
		arena = string(blob)
	}
	pool := make([]string, len(off)-1)
	for i := range pool {
		lo, hi := off[i], off[i+1]
		if hi < lo || int64(hi) > int64(len(arena)) {
			return nil, fmt.Errorf("osm: snapshot v2: pool offsets inconsistent")
		}
		pool[i] = arena[lo:hi]
	}
	return pool, nil
}

// Column materialization. On little-endian hosts a copy is a single
// memcpy through a byte view (or, with alias, free); big-endian hosts
// decode element-wise.

func int64Col(b []byte, alias bool) []int64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if alias && hostLittleEndian {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int64, n)
	if hostLittleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), len(b)), b)
	} else {
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
		}
	}
	return out
}

func float64Col(b []byte, alias bool) []float64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if alias && hostLittleEndian {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	if hostLittleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), len(b)), b)
	} else {
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		}
	}
	return out
}

func uint32Col(b []byte, alias bool) []uint32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if alias && hostLittleEndian {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint32, n)
	if hostLittleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), len(b)), b)
	} else {
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(b[i*4:])
		}
	}
	return out
}

// Section writers: pad to 8-byte file alignment, then one bulk write. On
// little-endian hosts numeric slices are written through a byte view
// without re-encoding.

type countingWriter struct {
	w   io.Writer
	n   int64
	crc hash.Hash32 // when set, tees written bytes into the fingerprint
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	if c.crc != nil && n > 0 {
		c.crc.Write(p[:n])
	}
	return n, err
}

var padZeros [8]byte

func (c *countingWriter) pad() error {
	if rem := c.n % 8; rem != 0 {
		_, err := c.Write(padZeros[:8-rem])
		return err
	}
	return nil
}

func writeInt64s(c *countingWriter, v []int64) error {
	if err := c.pad(); err != nil {
		return err
	}
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		_, err := c.Write(unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v)))
		return err
	}
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(x))
	}
	_, err := c.Write(buf)
	return err
}

func writeFloat64s(c *countingWriter, v []float64) error {
	if err := c.pad(); err != nil {
		return err
	}
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		_, err := c.Write(unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v)))
		return err
	}
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(x))
	}
	_, err := c.Write(buf)
	return err
}

func writeUint32s(c *countingWriter, v []uint32) error {
	if err := c.pad(); err != nil {
		return err
	}
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		_, err := c.Write(unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v)))
		return err
	}
	buf := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(buf[i*4:], x)
	}
	_, err := c.Write(buf)
	return err
}

func int32Col(b []byte, alias bool) []int32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if alias && hostLittleEndian {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	if hostLittleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), len(b)), b)
	} else {
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
		}
	}
	return out
}

func writeInt32s(c *countingWriter, v []int32) error {
	if err := c.pad(); err != nil {
		return err
	}
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		_, err := c.Write(unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v)))
		return err
	}
	buf := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(x))
	}
	_, err := c.Write(buf)
	return err
}

func writeStrings(c *countingWriter, pool []string) error {
	if err := c.pad(); err != nil {
		return err
	}
	for _, s := range pool {
		if _, err := io.WriteString(c, s); err != nil {
			return err
		}
	}
	return nil
}
