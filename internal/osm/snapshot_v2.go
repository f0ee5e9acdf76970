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
// the start of the file, so file offsets are buffer offsets when decode
// holds the whole file):
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
// Lengths ride in the header, so decode aliases (or, big-endian, copies)
// each column in one step — no per-node decoding.

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

var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// WriteSnapshotVersionsIndexed serializes the map in the v2 columnar
// format, carrying per-node update versions (nil writes none) and, after
// the trailer, the persisted serving index (see snapshot_index.go),
// fingerprinted against the node/way sections it was built from; idx nil
// writes no index. The overlay of a map WithNode derived is merged into the
// written columns, not into the map: writing leaves the map untouched, so
// a served view can be saved while it serves.
func (m *Map) WriteSnapshotVersionsIndexed(w io.Writer, vers map[NodeID]uint64, idx *IndexData) error {
	cols := m.packed()
	ways := make([]*Way, 0, len(m.ways))
	for _, way := range m.ways {
		ways = append(ways, way)
	}
	rels := make([]*Relation, 0, len(m.relations))
	for _, rel := range m.relations {
		rels = append(rels, rel)
	}
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
	cw.encode(snapshot{Version: snapshotV2})
	cw.put(v2Magic)
	cw.encode(h)
	// Fingerprint the node/way sections as they stream out: pad first so
	// the leading alignment bytes stay outside the sum (the reader's region
	// likewise starts at the aligned first-section offset).
	cw.pad()
	cw.crc = crc32.New(castagnoli)
	fpStart := cw.n
	writeCol(cw, cols.ids)
	writeCol(cw, cols.lat)
	writeCol(cw, cols.lng)
	writeCol(cw, cols.locX)
	writeCol(cw, cols.locY)
	writeCol(cw, cols.tagOff)
	writeCol(cw, cols.tagPairs)
	writeCol(cw, poolOff)
	writeStrings(cw, cols.pool)
	writeCol(cw, wayIDs)
	writeCol(cw, wayNodeOff)
	writeCol(cw, wayNodeRefs)
	writeCol(cw, wayTagOff)
	writeCol(cw, wayTagPairs)
	writeCol(cw, wayPoolOff)
	writeStrings(cw, wpool)
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
	cw.encode(tr)
	if idx != nil && cw.err == nil {
		if err := writeIndexSections(cw, idx, fpBytes, fpSum); err != nil {
			return err
		}
	}
	return cw.err
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

// decode parses a whole snapshot file held in data. Section offsets are
// offsets into data, so data must start 8-byte aligned; a buffer that does
// not is copied once into one that does. Numeric columns, pool strings and
// index sections alias data (see col), so the map keeps data alive. The
// third result is the persisted serving index, nil when the snapshot
// carries none (or a stale/corrupt one — see decodeIndexSections).
func decode(data []byte) (*Map, map[NodeID]uint64, *IndexData, error) {
	if len(data) > 0 && uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		words := make([]uint64, (len(data)+7)/8)
		aligned := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(data))
		copy(aligned, data)
		data = aligned
	}
	br := bytes.NewReader(data)
	version, err := readVersion(br)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("osm: snapshot decode: %w", err)
	}
	if version != snapshotV2 {
		return nil, nil, nil, fmt.Errorf("osm: unsupported snapshot version %d", version)
	}
	var magic [len(v2Magic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != v2Magic {
		return nil, nil, nil, fmt.Errorf("osm: snapshot v2: bad section magic")
	}
	var h v2Header
	if err := gob.NewDecoder(br).Decode(&h); err != nil {
		return nil, nil, nil, fmt.Errorf("osm: snapshot v2 header: %w", err)
	}
	for _, n := range []int64{h.Nodes, h.TagPairs, h.PoolCount, h.PoolBytes,
		h.Ways, h.WayRefs, h.WayTagPairs, h.WayPoolCount, h.WayPoolBytes} {
		if n < 0 {
			return nil, nil, nil, fmt.Errorf("osm: snapshot v2: negative section length")
		}
	}

	c := &cursor{data: data, off: int64(len(data) - br.Len())}
	c.align()
	fpStart := c.off
	ids := take[int64](c, h.Nodes)
	lat := take[float64](c, h.Nodes)
	lng := take[float64](c, h.Nodes)
	var locX, locY []float64
	if h.HasLocal {
		locX = take[float64](c, h.Nodes)
		locY = take[float64](c, h.Nodes)
	}
	tagOff := take[uint32](c, h.Nodes+1)
	tagPairs := take[uint32](c, h.TagPairs*2)
	poolOff := take[uint32](c, h.PoolCount+1)
	poolBlob := c.bytes(h.PoolBytes, 1)
	wayIDs := take[int64](c, h.Ways)
	wayNodeOff := take[uint32](c, h.Ways+1)
	wayNodeRefs := take[int64](c, h.WayRefs)
	wayTagOff := take[uint32](c, h.Ways+1)
	wayTagPairs := take[uint32](c, h.WayTagPairs*2)
	wayPoolOff := take[uint32](c, h.WayPoolCount+1)
	wayPoolBlob := c.bytes(h.WayPoolBytes, 1)
	fpEnd := c.off
	if c.err != nil {
		return nil, nil, nil, c.err
	}

	pool, err := poolStrings(poolOff, poolBlob)
	if err != nil {
		return nil, nil, nil, err
	}
	wpool, err := poolStrings(wayPoolOff, wayPoolBlob)
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
	if err := gob.NewDecoder(bytes.NewReader(data[c.off:])).DecodeValue(reflect.Value{}); err != nil {
		return nil, nil, nil, fmt.Errorf("osm: snapshot v2 trailer: %w", err)
	}
	trr := bytes.NewReader(data[c.off:])
	var tr v2Trailer
	if err := gob.NewDecoder(trr).Decode(&tr); err != nil {
		return nil, nil, nil, fmt.Errorf("osm: snapshot v2 trailer: %w", err)
	}
	c.off = int64(len(data) - trr.Len())

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
	return m, vers, decodeIndexSections(c, fpStart, fpEnd), nil
}

// cursor walks the 8-byte-aligned sections of a snapshot held whole in
// data. The first failure sticks in err; every later section is nil.
type cursor struct {
	data []byte
	off  int64
	err  error
}

// align advances to the next 8-byte file offset.
func (c *cursor) align() { c.off += (8 - c.off%8) % 8 }

// bytes returns the next aligned section of elems elements of size bytes.
func (c *cursor) bytes(elems, size int64) []byte {
	if c.err != nil {
		return nil
	}
	c.align()
	if elems < 0 || c.off > int64(len(c.data)) || elems > (int64(len(c.data))-c.off)/size {
		c.err = fmt.Errorf("osm: snapshot v2: truncated section")
		return nil
	}
	b := c.data[c.off : c.off+elems*size : c.off+elems*size]
	c.off += elems * size
	return b
}

// take returns the next aligned section as a column of n elements.
func take[T colElem](c *cursor, n int64) []T {
	var zero T
	return col[T](c.bytes(n, int64(unsafe.Sizeof(zero))))
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

// poolStrings rebuilds a string pool from its offset column and blob. The
// strings alias the blob in place.
func poolStrings(off []uint32, blob []byte) ([]string, error) {
	if len(off) == 0 {
		return nil, fmt.Errorf("osm: snapshot v2: pool offsets missing")
	}
	var arena string
	if len(blob) > 0 {
		arena = unsafe.String(&blob[0], len(blob))
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

// colElem is every element type a snapshot column holds, NodeID included.
type colElem interface {
	~int32 | ~uint32 | ~int64 | ~float64
}

// col views a little-endian section b as a column. On little-endian hosts
// the column aliases b (b must be aligned for T, which decode's 8-byte
// section alignment guarantees); big-endian hosts decode a copy.
func col[T colElem](b []byte) []T {
	var zero T
	n := len(b) / int(unsafe.Sizeof(zero))
	if n == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	_ = binary.Read(bytes.NewReader(b), binary.LittleEndian, out) // b holds n elements: it cannot fail
	return out
}

// countingWriter tracks the file offset the section alignment is defined
// against. Its first error, from a write or an encoder, sticks in err and
// drops every later write, so a writer checks err once at the end.
type countingWriter struct {
	w   io.Writer
	n   int64
	crc hash.Hash32 // when set, tees written bytes into the fingerprint
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	if c.crc != nil {
		c.crc.Write(p[:n]) // a hash.Hash write never fails
	}
	c.err = err
	return n, err
}

// keep records err unless an earlier error is already kept.
func (c *countingWriter) keep(err error) {
	if c.err == nil {
		c.err = err
	}
}

// put writes s, keeping any failure in err.
func (c *countingWriter) put(s string) {
	_, err := io.WriteString(c, s)
	c.keep(err)
}

// encode writes v as one gob message, keeping any failure in err.
func (c *countingWriter) encode(v any) { c.keep(gob.NewEncoder(c).Encode(v)) }

const padZeros = "\x00\x00\x00\x00\x00\x00\x00\x00"

// pad advances to the next 8-byte file offset.
func (c *countingWriter) pad() {
	if rem := c.n % 8; rem != 0 {
		c.put(padZeros[:8-rem])
	}
}

// writeCol writes one column section: pad, then v little-endian.
func writeCol[T colElem](c *countingWriter, v []T) {
	c.pad()
	c.keep(binary.Write(c, binary.LittleEndian, v))
}

// writeStrings writes a pool blob section: pad, then the strings back to
// back.
func writeStrings(c *countingWriter, pool []string) {
	c.pad()
	for _, s := range pool {
		c.put(s)
	}
}
