package osm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc32"

	"openflame/internal/geo"
	"openflame/internal/rtree"
)

// Persisted serving indexes: snapshot v2 can carry, after its trailer, the
// store's static index structures as more aligned sections — both R-trees'
// packed columns (rtree.StaticLayout), CSR posting lists over a token
// pool, and the map's geodetic bounds — so a booting server attaches them
// (aliasing the snapshot's bytes, as every column does) instead of
// re-inserting every node and segment into pointer trees.
//
// Layout, following the v2 trailer:
//
//	"OFSNIDX1"                    — index-section magic
//	gob(v2IndexHeader)            — lengths, level offsets, fingerprint
//	nItemLat    float64[NodeItems]   node-tree item latitudes (points, so
//	nItemLng    float64[NodeItems]   the Max columns are not persisted)
//	nItemID     int64[NodeItems]     node-tree payloads (NodeIDs, STR order)
//	nMinLat..nMaxLng float64[NodeTreeNodes]×4
//	nChildLo,nChildHi int32[NodeTreeNodes]
//	sItemMinLat..sItemMaxLng float64[SegItems]×4  segment-tree item rects
//	sWay        int64[SegItems]      owning way per segment
//	sIdx        int32[SegItems]      segment index within the way
//	sMinLat..sMaxLng float64[SegTreeNodes]×4
//	sChildLo,sChildHi int32[SegTreeNodes]
//	tokOff      uint32[Tokens+1]     cumulative byte offsets into tokBlob
//	tokBlob     byte[TokenBytes]     sorted tokens, concatenated
//	postOff     uint32[Tokens+1]     CSR offsets into postings
//	postings    int64[Postings]      ascending NodeIDs per token
//
// Compatibility is free in both directions: a reader predating the index
// stops at the trailer and never sees the sections; this reader treats
// "nothing after the trailer" (or an unknown tail) as "no index". The
// fingerprint is a
// CRC-32C over the exact node/way section bytes of the same file, so an
// index that was not produced from these columns — a stale copy, a
// hand-edited snapshot — is discarded at load and the caller rebuilds.

const v2IndexMagic = "OFSNIDX1"

type v2IndexHeader struct {
	// Fingerprint of the snapshot's own node/way column bytes.
	FPBytes int64
	FPSum   uint32
	Bounds  geo.Rect
	// Static tree shapes; the level-offset columns are small (tree height
	// + 1 entries) and ride in the header.
	NodeItems     int64
	NodeTreeNodes int64
	NodeLevelOff  []int32
	SegItems      int64
	SegTreeNodes  int64
	SegLevelOff   []int32
	// Inverted-index shape.
	Tokens     int64
	TokenBytes int64
	Postings   int64
}

// IndexData is the decoded (or to-be-written) persisted index: everything
// store.NewWithIndex needs to start serving without a rebuild. Decoded on
// a little-endian host, every column aliases the snapshot's bytes.
type IndexData struct {
	Bounds geo.Rect
	// Node R-tree: point items carrying NodeIDs.
	NodeTree  rtree.StaticLayout
	NodeItems []NodeID
	// Segment R-tree: rect items carrying (way, segment-index) pairs.
	SegTree rtree.StaticLayout
	SegWays []int64
	SegIdxs []int32
	// Inverted text index: Tokens[i]'s posting list is
	// Postings[PostOff[i]:PostOff[i+1]], ascending.
	Tokens   []string
	PostOff  []uint32
	Postings []NodeID
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// writeIndexSections appends the index magic, header, and columns. fpBytes
// and fpSum fingerprint the node/way sections already written to cw. It
// returns an error only for an index it refuses to write; write errors
// stay in cw.err.
func writeIndexSections(cw *countingWriter, idx *IndexData, fpBytes int64, fpSum uint32) error {
	if len(idx.NodeItems) > 0 && !idx.NodeTree.PointItems() {
		return fmt.Errorf("osm: persisted index: node tree must hold point items")
	}
	tokOff, tokBytes, err := poolOffsets(idx.Tokens)
	if err != nil {
		return err
	}
	if len(idx.PostOff) != len(idx.Tokens)+1 {
		return fmt.Errorf("osm: persisted index: posting offsets disagree with tokens")
	}
	h := v2IndexHeader{
		FPBytes:       fpBytes,
		FPSum:         fpSum,
		Bounds:        idx.Bounds,
		NodeItems:     int64(len(idx.NodeItems)),
		NodeTreeNodes: int64(len(idx.NodeTree.ChildLo)),
		NodeLevelOff:  idx.NodeTree.LevelOff,
		SegItems:      int64(len(idx.SegWays)),
		SegTreeNodes:  int64(len(idx.SegTree.ChildLo)),
		SegLevelOff:   idx.SegTree.LevelOff,
		Tokens:        int64(len(idx.Tokens)),
		TokenBytes:    tokBytes,
		Postings:      int64(len(idx.Postings)),
	}
	cw.put(v2IndexMagic)
	cw.encode(h)
	writeCol(cw, idx.NodeTree.ItemMinLat)
	writeCol(cw, idx.NodeTree.ItemMinLng)
	writeCol(cw, idx.NodeItems)
	writeCol(cw, idx.NodeTree.NodeMinLat)
	writeCol(cw, idx.NodeTree.NodeMinLng)
	writeCol(cw, idx.NodeTree.NodeMaxLat)
	writeCol(cw, idx.NodeTree.NodeMaxLng)
	writeCol(cw, idx.NodeTree.ChildLo)
	writeCol(cw, idx.NodeTree.ChildHi)
	writeCol(cw, idx.SegTree.ItemMinLat)
	writeCol(cw, idx.SegTree.ItemMinLng)
	writeCol(cw, idx.SegTree.ItemMaxLat)
	writeCol(cw, idx.SegTree.ItemMaxLng)
	writeCol(cw, idx.SegWays)
	writeCol(cw, idx.SegIdxs)
	writeCol(cw, idx.SegTree.NodeMinLat)
	writeCol(cw, idx.SegTree.NodeMinLng)
	writeCol(cw, idx.SegTree.NodeMaxLat)
	writeCol(cw, idx.SegTree.NodeMaxLng)
	writeCol(cw, idx.SegTree.ChildLo)
	writeCol(cw, idx.SegTree.ChildHi)
	writeCol(cw, tokOff)
	writeStrings(cw, idx.Tokens)
	writeCol(cw, idx.PostOff)
	writeCol(cw, idx.Postings)
	return nil
}

// decodeIndexSections parses the optional index tail of a v2 snapshot,
// continuing decode's cursor from the first byte after the trailer;
// [fpStart,fpEnd) is the byte range of the node/way sections just
// decoded, checksummed only when an index tail is actually present.
// A missing, unrecognized, mismatched, or corrupt index yields nil: the
// load still succeeds and the caller rebuilds — a wrong index must never
// be served, and a damaged one must never fail an otherwise-good snapshot.
func decodeIndexSections(c *cursor, fpStart, fpEnd int64) *IndexData {
	data := c.data
	if !bytes.HasPrefix(data[c.off:], []byte(v2IndexMagic)) {
		return nil
	}
	br := bytes.NewReader(data[c.off+int64(len(v2IndexMagic)):])
	var h v2IndexHeader
	if err := gob.NewDecoder(br).Decode(&h); err != nil {
		return nil
	}
	if h.FPBytes != fpEnd-fpStart ||
		h.FPSum != crc32.Checksum(data[fpStart:fpEnd], castagnoli) {
		return nil // index built from different node/way columns: stale
	}
	c.off = int64(len(data) - br.Len())

	idx := &IndexData{Bounds: h.Bounds}
	idx.NodeTree.ItemMinLat = take[float64](c, h.NodeItems)
	idx.NodeTree.ItemMinLng = take[float64](c, h.NodeItems)
	idx.NodeTree.ItemMaxLat = idx.NodeTree.ItemMinLat
	idx.NodeTree.ItemMaxLng = idx.NodeTree.ItemMinLng
	idx.NodeItems = take[NodeID](c, h.NodeItems)
	idx.NodeTree.NodeMinLat = take[float64](c, h.NodeTreeNodes)
	idx.NodeTree.NodeMinLng = take[float64](c, h.NodeTreeNodes)
	idx.NodeTree.NodeMaxLat = take[float64](c, h.NodeTreeNodes)
	idx.NodeTree.NodeMaxLng = take[float64](c, h.NodeTreeNodes)
	idx.NodeTree.ChildLo = take[int32](c, h.NodeTreeNodes)
	idx.NodeTree.ChildHi = take[int32](c, h.NodeTreeNodes)
	idx.NodeTree.LevelOff = h.NodeLevelOff
	idx.SegTree.ItemMinLat = take[float64](c, h.SegItems)
	idx.SegTree.ItemMinLng = take[float64](c, h.SegItems)
	idx.SegTree.ItemMaxLat = take[float64](c, h.SegItems)
	idx.SegTree.ItemMaxLng = take[float64](c, h.SegItems)
	idx.SegWays = take[int64](c, h.SegItems)
	idx.SegIdxs = take[int32](c, h.SegItems)
	idx.SegTree.NodeMinLat = take[float64](c, h.SegTreeNodes)
	idx.SegTree.NodeMinLng = take[float64](c, h.SegTreeNodes)
	idx.SegTree.NodeMaxLat = take[float64](c, h.SegTreeNodes)
	idx.SegTree.NodeMaxLng = take[float64](c, h.SegTreeNodes)
	idx.SegTree.ChildLo = take[int32](c, h.SegTreeNodes)
	idx.SegTree.ChildHi = take[int32](c, h.SegTreeNodes)
	idx.SegTree.LevelOff = h.SegLevelOff
	tokOff := take[uint32](c, h.Tokens+1)
	tokBlob := c.bytes(h.TokenBytes, 1)
	idx.PostOff = take[uint32](c, h.Tokens+1)
	idx.Postings = take[NodeID](c, h.Postings)
	if c.err != nil {
		return nil
	}
	var err error
	if idx.Tokens, err = poolStrings(tokOff, tokBlob); err != nil {
		return nil
	}
	if checkCSR(idx.PostOff, int64(len(idx.Postings)), "posting") != nil {
		return nil
	}
	// The tree layouts get their full structural validation in
	// rtree.StaticFromLayout at attach; a failure there also falls back.
	return idx
}
