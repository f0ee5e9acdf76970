// Package store implements a map server's spatial database: an R-tree over
// node positions and way segments for geometric queries (reverse geocode,
// snapping, viewport retrieval) and an inverted index over tag text for
// keyword retrieval. It is the per-server "federated spatial database"
// building block of Figure 2.
package store

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"

	"openflame/internal/geo"
	"openflame/internal/osm"
	"openflame/internal/rtree"
)

// SegmentRef identifies one segment of a way.
type SegmentRef struct {
	WayID osm.WayID
	Index int // segment i connects way node i and i+1
}

// Store indexes one osm.Map and publishes it as a sequence of immutable
// Views. A reader pins one view (View) and answers entirely from it; the
// single writer builds view N+1 from view N plus one tag replacement and
// publishes it atomically, so no read ever sees half a write. Safe for
// concurrent use.
type Store struct {
	cur atomic.Pointer[View]
	// mu serializes writers: it guards nodeVer and view publication (and
	// with it the change log's shared backing array).
	mu sync.Mutex
	// logID identifies this log's incarnation (drawn at construction):
	// a restarted store mints a new one, so consumers can tell "the log
	// restarted" apart from "the log advanced" even when the new head has
	// overtaken their cursor.
	logID uint64
	// nodeVer tracks each node's update version (see Change.Ver); absent
	// means 0 (never tag-updated).
	nodeVer map[osm.NodeID]uint64
	// notify is a 1-buffered wakeup for change-log consumers: every log
	// append sends non-blockingly, so a sleeping drain loop wakes without
	// any writer ever waiting on a reader. A coalesced signal is enough —
	// consumers re-read the head and drain everything pending.
	notify chan struct{}
}

// View is one immutable state of a Store: a map snapshot, its indexes, and
// the change log through Seq. Every read a View answers reflects exactly
// the writes up to Seq, however many writes land meanwhile.
//
// A tag write never moves a node, so positions, ways, both R-trees and the
// bounds are built once and shared by every view; only node tags (the
// map's small overlay) and posting lists differ between views.
type View struct {
	// Gen is the map generation the view serves — the version query caches
	// and ETags key on. Seq is the change-log head: the last write the view
	// holds (0 = none). Every write moves both by one, so Gen−Seq is
	// constant for a store's lifetime.
	Gen, Seq uint64

	m      *osm.Map
	nodes  *rtree.Static[osm.NodeID] // node positions (point rects)
	segs   *rtree.Static[SegmentRef] // way segment bounds
	bounds geo.Rect
	post   postings
	// changes is the retained suffix of the sequence-numbered change log,
	// ending at Seq. Views append to one shared backing array; an older
	// view never reads past its own length, so appends never reach it.
	changes []Change
}

// Reader is what pins a view: a Store (its current view) or a View
// (itself). Search and geocode take a Reader so one computation reads one
// view whichever they were handed.
type Reader interface {
	View() *View
}

// View returns the current view.
func (s *Store) View() *View { return s.cur.Load() }

// View returns v itself, so a pinned view is a Reader.
func (v *View) View() *View { return v }

// Change is one sequence-numbered inventory update: the node's tags were
// replaced wholesale with Tags. The log records tag replacements (the
// paper's independent map-management writes); structural mutations rebuild
// replicas out of band.
type Change struct {
	Seq    uint64
	NodeID osm.NodeID
	Tags   osm.Tags
	// Ver is the node's update version: every local write increments it,
	// and a replicated application adopts the origin's version. It is what
	// lets a replica tell a sibling's ECHO of an old value apart from a
	// genuinely newer write — without it, an echo arriving after a local
	// update would roll the node back and the newer write would be lost
	// federation-wide.
	Ver uint64
	// Pos is the node's position, recorded so log consumers can route the
	// change geometrically (the watch subsystem matches changes against
	// standing regional queries) without a node lookup. Tag updates never
	// move nodes, so the position is exact for the change's lifetime.
	Pos geo.LatLng
}

// changeLogCap is the guaranteed retention of the change log (compaction
// is amortized, so up to 2x may be held). A replica further behind than
// the retained window cannot replay the compacted prefix; because
// applications of the log are idempotent tag replacements, it still
// converges on every retained (and future) change.
const changeLogCap = 4096

// compactMinPending is the posting-delta size at which a write folds the
// delta into a fresh base — the same constant osm.Map.WithNode folds its
// node overlay at, so a write's copying is bounded by it.
const compactMinPending = 1024

// portalToken is the reserved inverted-index token whose posting list
// holds every node carrying osm.TagPortalID, ascending by ID. Tokenize
// only ever emits lowercase alphanumerics, so the NUL prefix cannot
// collide with a real token, and the list rides posting-list persistence
// for free — an attached server knows its portals without walking the map.
const portalToken = "\x00portal"

// New builds the indexes for m from scratch — the cold-start path (no
// snapshot index, or a stale one). The three index families are
// independent, so they build in parallel: node tree, segment tree, and
// inverted text index each get a goroutine walking the (read-only) map. m
// must not be written in place afterwards: writes go through the Store.
func New(m *osm.Map) *Store {
	v := &View{Gen: m.Generation(), m: m}
	inv := make(map[string][]osm.NodeID)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		ents := make([]rtree.Entry[osm.NodeID], 0, m.NodeCount())
		bounds := geo.EmptyRect()
		m.Nodes(func(n *osm.Node) bool {
			pos := m.NodePosition(n)
			bounds = bounds.ExpandToInclude(pos)
			ents = append(ents, rtree.Entry[osm.NodeID]{Bound: pointRect(pos), Item: n.ID})
			return true
		})
		v.nodes = rtree.BulkLoad(ents)
		v.bounds = bounds
	}()
	go func() {
		defer wg.Done()
		var ents []rtree.Entry[SegmentRef]
		m.Ways(func(w *osm.Way) bool {
			nodes := m.WayNodes(w)
			for i := 1; i < len(nodes); i++ {
				a := m.NodePosition(nodes[i-1])
				b := m.NodePosition(nodes[i])
				r := geo.EmptyRect().ExpandToInclude(a).ExpandToInclude(b)
				ents = append(ents, rtree.Entry[SegmentRef]{
					Bound: r, Item: SegmentRef{WayID: w.ID, Index: i - 1},
				})
			}
			return true
		})
		v.segs = rtree.BulkLoad(ents)
	}()
	go func() {
		defer wg.Done()
		// Nodes iterates in ascending ID order, so every insertPosting here
		// is a tail append.
		m.Nodes(func(n *osm.Node) bool {
			for _, tok := range indexTokens(n.Tags) {
				inv[tok] = insertPosting(inv[tok], n.ID)
			}
			return true
		})
	}()
	wg.Wait()
	v.post = postings{base: inv}
	return newStore(v)
}

// NewWithIndex attaches a persisted snapshot index (osm.IndexData, already
// fingerprint-verified against the map's columns by the snapshot reader)
// instead of rebuilding: the static trees are validated structurally and
// adopted as-is, and posting lists slice the persisted CSR arena in place.
// On the mmap path nothing here copies the tree columns — boot cost is
// O(validation), not O(n log n) build.
//
// An error means the index is unusable (corrupt layout, count mismatch);
// callers fall back to New.
func NewWithIndex(m *osm.Map, idx *osm.IndexData) (*Store, error) {
	if idx == nil {
		return nil, fmt.Errorf("store: nil index")
	}
	nodeTree, err := rtree.StaticFromLayout(idx.NodeTree, idx.NodeItems)
	if err != nil {
		return nil, fmt.Errorf("store: node tree: %w", err)
	}
	if nodeTree.Len() != m.NodeCount() {
		return nil, fmt.Errorf("store: index holds %d nodes, map %d", nodeTree.Len(), m.NodeCount())
	}
	if len(idx.SegWays) != len(idx.SegIdxs) {
		return nil, fmt.Errorf("store: segment payload columns disagree")
	}
	refs := make([]SegmentRef, len(idx.SegWays))
	for i := range refs {
		refs[i] = SegmentRef{WayID: osm.WayID(idx.SegWays[i]), Index: int(idx.SegIdxs[i])}
	}
	segTree, err := rtree.StaticFromLayout(idx.SegTree, refs)
	if err != nil {
		return nil, fmt.Errorf("store: segment tree: %w", err)
	}
	if len(idx.PostOff) != len(idx.Tokens)+1 {
		return nil, fmt.Errorf("store: posting offsets disagree with tokens")
	}
	inv := make(map[string][]osm.NodeID, len(idx.Tokens))
	for i, tok := range idx.Tokens {
		if lo, hi := idx.PostOff[i], idx.PostOff[i+1]; hi > lo {
			// Three-index slices: a later copy-on-write append reallocates
			// instead of scribbling past a reader's view (or into the mmap).
			inv[tok] = idx.Postings[lo:hi:hi]
		}
	}
	return newStore(&View{
		Gen:    m.Generation(),
		m:      m,
		nodes:  nodeTree,
		segs:   segTree,
		bounds: idx.Bounds,
		post:   postings{base: inv},
	}), nil
}

func newStore(v *View) *Store {
	s := &Store{
		logID:   newLogID(),
		nodeVer: make(map[osm.NodeID]uint64),
		notify:  make(chan struct{}, 1),
	}
	s.cur.Store(v)
	return s
}

// PersistedIndex exports the view's serving indexes for snapshot
// persistence (osm.WriteSnapshotVersionsIndexed): the two static trees
// as-is, and the inverted index flattened into sorted tokens over one CSR
// postings arena. A server that later attaches this export serves
// byte-identical results: BulkLoad is deterministic and posting lists are
// persisted in full.
func (v *View) PersistedIndex() *osm.IndexData {
	idx := &osm.IndexData{
		Bounds:    v.bounds,
		NodeTree:  v.nodes.Layout(),
		NodeItems: append([]osm.NodeID(nil), v.nodes.Items()...),
	}
	segItems := v.segs.Items()
	idx.SegTree = v.segs.Layout()
	idx.SegWays = make([]int64, len(segItems))
	idx.SegIdxs = make([]int32, len(segItems))
	for i, ref := range segItems {
		idx.SegWays[i] = int64(ref.WayID)
		idx.SegIdxs[i] = int32(ref.Index)
	}
	idx.Tokens = v.post.tokens()
	idx.PostOff = make([]uint32, 1, len(idx.Tokens)+1)
	for _, tok := range idx.Tokens {
		idx.Postings = append(idx.Postings, v.post.list(tok)...)
		idx.PostOff = append(idx.PostOff, uint32(len(idx.Postings)))
	}
	return idx
}

// Map returns the view's map (position lookups, iteration, FindNodes). It
// holds exactly the writes through Seq and never changes: an osm.Map is
// immutable, and later writes derive new maps (osm.Map.WithNode) that
// leave this one alone.
func (v *View) Map() *osm.Map { return v.m }

// Bounds returns the geodetic bounding rectangle of the indexed content.
func (v *View) Bounds() geo.Rect { return v.bounds }

// The reads bench/ and other store-level callers make on the current view.

// Map returns the current view's map (see View.Map).
func (s *Store) Map() *osm.Map { return s.View().Map() }

// NearestNodes answers View.NearestNodes on the current view.
func (s *Store) NearestNodes(ll geo.LatLng, k int, maxMeters float64) []NodeHit {
	return s.View().NearestNodes(ll, k, maxMeters)
}

// SnapToWay answers View.SnapToWay on the current view.
func (s *Store) SnapToWay(ll geo.LatLng, maxMeters float64) (Snap, bool) {
	return s.View().SnapToWay(ll, maxMeters)
}

// PersistedIndex exports the current view's indexes (see
// View.PersistedIndex).
func (s *Store) PersistedIndex() *osm.IndexData { return s.View().PersistedIndex() }

func pointRect(ll geo.LatLng) geo.Rect {
	return geo.Rect{MinLat: ll.Lat, MinLng: ll.Lng, MaxLat: ll.Lat, MaxLng: ll.Lng}
}

// indexTokens returns the posting lists a node with these tags belongs to:
// its searchable tokens, plus the portal list when it is a portal.
func indexTokens(tags osm.Tags) []string {
	toks := TokenizeTags(tags)
	if tags[osm.TagPortalID] != "" {
		toks = append(toks, portalToken)
	}
	return toks
}

// postings is one view's inverted index: an immutable base map plus a
// small delta holding the lists writes replaced since the last fold (an
// empty list shadows a base token that lost its last node). Published
// lists are never written: a mid-list insert or any delete builds a fresh
// slice, and a tail append only touches capacity beyond every published
// length — so ForEachPostingMatch merges over them without copying.
type postings struct {
	base, delta map[string][]osm.NodeID
}

func (p postings) list(tok string) []osm.NodeID {
	if l, ok := p.delta[tok]; ok {
		return l
	}
	return p.base[tok]
}

// tokens returns every token with a non-empty list, sorted.
func (p postings) tokens() []string {
	out := make([]string, 0, len(p.base)+len(p.delta))
	for tok := range p.base {
		if _, ok := p.delta[tok]; !ok {
			out = append(out, tok)
		}
	}
	for tok, l := range p.delta {
		if len(l) > 0 {
			out = append(out, tok)
		}
	}
	sort.Strings(out)
	return out
}

// moved returns p with node id taken out of the lists of the tokens it
// lost and put into those it gained. It copies the delta and the touched
// lists, never the base; a delta that reaches compactMinPending folds into
// a fresh base.
func (p postings) moved(id osm.NodeID, lost, gained []string) postings {
	delta := make(map[string][]osm.NodeID, len(p.delta)+len(lost)+len(gained))
	for tok, l := range p.delta {
		delta[tok] = l
	}
	out := postings{base: p.base, delta: delta}
	for _, tok := range lost {
		delta[tok] = removePosting(out.list(tok), id)
	}
	for _, tok := range gained {
		delta[tok] = insertPosting(out.list(tok), id)
	}
	if len(delta) < compactMinPending {
		return out
	}
	base := make(map[string][]osm.NodeID, len(p.base)+len(delta))
	for tok, l := range p.base {
		base[tok] = l
	}
	for tok, l := range delta {
		if len(l) == 0 {
			delete(base, tok)
		} else {
			base[tok] = l
		}
	}
	return postings{base: base}
}

// insertPosting adds id to a sorted posting list. The index build appends
// ascending IDs, so the common case is a tail append; a mid-list insert is
// copy-on-write to keep published lists immutable.
func insertPosting(lst []osm.NodeID, id osm.NodeID) []osm.NodeID {
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= id })
	if i == len(lst) {
		return append(lst, id)
	}
	if lst[i] == id {
		return lst
	}
	out := make([]osm.NodeID, len(lst)+1)
	copy(out, lst[:i])
	out[i] = id
	copy(out[i+1:], lst[i:])
	return out
}

// removePosting removes id from a sorted posting list, copy-on-write.
func removePosting(lst []osm.NodeID, id osm.NodeID) []osm.NodeID {
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= id })
	if i == len(lst) || lst[i] != id {
		return lst
	}
	out := make([]osm.NodeID, 0, len(lst)-1)
	out = append(out, lst[:i]...)
	return append(out, lst[i+1:]...)
}

// tokenDiff returns the tokens in a but not in b.
func tokenDiff(a, b []string) []string {
	var out []string
	for _, tok := range a {
		found := false
		for _, t := range b {
			if t == tok {
				found = true
				break
			}
		}
		if !found {
			out = append(out, tok)
		}
	}
	return out
}

// UpdateNodeTags replaces a node's tags and publishes the view that holds
// the write. Readers holding an older view keep their (stale, consistent)
// answers.
func (s *Store) UpdateNodeTags(id osm.NodeID, tags osm.Tags) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.View().m.Node(id)
	if n == nil {
		return false
	}
	s.publishLocked(n, tags, s.nodeVer[id]+1)
	return true
}

// ApplyReplicatedTags applies a tag state replicated from a sibling,
// carrying the origin's node version. Returns whether the map changed:
// a version at or below the local one is a stale echo or a replay and is
// skipped — the guard that stops an old value arriving late from rolling
// back a newer local write. An EQUAL-version conflict (two replicas wrote
// the same node concurrently) settles on the canonically larger tag
// serialization, so every member of the set picks the same winner.
func (s *Store) ApplyReplicatedTags(id osm.NodeID, tags osm.Tags, ver uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.View().m.Node(id)
	if n == nil {
		return false
	}
	cur := s.nodeVer[id]
	if ver < cur {
		return false
	}
	if ver == cur && canonicalTags(tags) <= canonicalTags(n.Tags) {
		return false
	}
	s.publishLocked(n, tags, ver)
	return true
}

// NodeVersion returns a node's update version (0 = never tag-updated).
func (s *Store) NodeVersion(id osm.NodeID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodeVer[id]
}

// NodeVersions returns a copy of every non-zero node update version — the
// state persisted alongside a map snapshot (osm.WriteSnapshotVersionsIndexed) so a
// restarted replica resumes versioning where it left off — together with
// the view they are exact at: persist that view's map and index with them.
func (s *Store) NodeVersions() (map[osm.NodeID]uint64, *View) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[osm.NodeID]uint64, len(s.nodeVer))
	for id, v := range s.nodeVer {
		out[id] = v
	}
	return out, s.View()
}

// RestoreNodeVersions seeds node update versions from a persisted snapshot:
// each node adopts the restored version unless it already holds a higher
// one. No change is logged and no view is published — restoring versions
// is bookkeeping, not a write. It closes the restart gap: a replica that
// restarts and accepts writes while isolated from every sibling would
// otherwise mint low versions that lose to the stale history those
// siblings still hold.
func (s *Store) RestoreNodeVersions(vers map[osm.NodeID]uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, v := range vers {
		if v > s.nodeVer[id] {
			s.nodeVer[id] = v
		}
	}
}

// publishLocked builds the view holding one tag replacement on top of the
// current one — new map, moved postings, one more change-log entry — and
// publishes it. Caller holds s.mu.
func (s *Store) publishLocked(n *osm.Node, tags osm.Tags, ver uint64) {
	v := s.View()
	nv := *v
	nv.m = v.m.WithNode(&osm.Node{ID: n.ID, Pos: n.Pos, Local: n.Local, Tags: tags})
	nv.Gen++
	nv.Seq++
	was, is := indexTokens(n.Tags), indexTokens(tags)
	nv.post = v.post.moved(n.ID, tokenDiff(was, is), tokenDiff(is, was))
	nv.changes = append(v.changes, Change{
		Seq: nv.Seq, NodeID: n.ID, Tags: tags.Clone(), Ver: ver,
		Pos: v.m.NodePosition(n),
	})
	// Compact lazily at 2x the cap so a hot write path past the cap pays
	// an O(cap) copy once per cap writes, not on every write; between
	// compactions the log retains AT LEAST the last changeLogCap changes.
	if len(nv.changes) > 2*changeLogCap {
		nv.changes = append([]Change(nil), nv.changes[len(nv.changes)-changeLogCap:]...)
	}
	s.nodeVer[n.ID] = ver
	s.cur.Store(&nv)
	// Wake any log consumer; the 1-buffered send coalesces and never blocks.
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// canonicalTags renders a tag set in a canonical order for deterministic
// equal-version conflict resolution.
func canonicalTags(t osm.Tags) string {
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte(0)
		b.WriteString(t[k])
		b.WriteByte(0)
	}
	return b.String()
}

// newLogID draws a fresh change-log incarnation id: random (uniqueness
// across process restarts is the whole point), never zero (zero is the
// pre-incarnation wire value).
func newLogID() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Fallback: a process-local counter still distinguishes in-process
		// restarts, the common test scenario.
		return logIDFallback.Add(1)
	}
	id := binary.LittleEndian.Uint64(b[:])
	if id == 0 {
		id = 1
	}
	return id
}

var logIDFallback atomic.Uint64

// LogID returns the change log's incarnation id (stable for the store's
// lifetime, fresh on every construction).
func (s *Store) LogID() uint64 { return s.logID }

// ChangeNotify returns the change-log wakeup channel: a 1-buffered signal
// that receives after every log append (coalesced — one pending signal may
// cover many appends). Consumers treat a receive as "the head may have
// moved" and drain a fresh view's ChangesSince.
func (s *Store) ChangeNotify() <-chan struct{} { return s.notify }

// FirstChangeSeq returns the oldest sequence number the view still retains
// in its log (0 when the log is empty).
func (v *View) FirstChangeSeq() uint64 {
	if len(v.changes) == 0 {
		return 0
	}
	return v.changes[0].Seq
}

// ChangesSince returns up to limit logged changes with Seq > since, oldest
// first (limit <= 0 means all retained). The returned slice is a copy; the
// Tags maps are shared and must be treated as immutable.
func (v *View) ChangesSince(since uint64, limit int) []Change {
	if len(v.changes) == 0 {
		return nil
	}
	// The log is contiguous: changes[i].Seq == changes[0].Seq + i. The
	// delta stays in uint64 until range-checked — `since` is wire input
	// (an absurd cursor must yield an empty answer, not an overflowed
	// negative slice index).
	var from int
	if since >= v.changes[0].Seq {
		delta := since - v.changes[0].Seq + 1
		if delta >= uint64(len(v.changes)) {
			return nil
		}
		from = int(delta)
	}
	out := v.changes[from:]
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return append([]Change(nil), out...)
}

// NodesInRect returns nodes whose position falls in r.
func (v *View) NodesInRect(r geo.Rect) []*osm.Node {
	var out []*osm.Node
	v.nodes.Search(r, func(_ geo.Rect, id osm.NodeID) bool {
		if n := v.m.Node(id); n != nil {
			out = append(out, n)
		}
		return true
	})
	return out
}

// NodeHit is a proximity query result.
type NodeHit struct {
	Node           *osm.Node
	DistanceMeters float64
}

// NearestNodes returns up to k nodes closest to ll within maxMeters
// (<=0 for unbounded), closest first.
func (v *View) NearestNodes(ll geo.LatLng, k int, maxMeters float64) []NodeHit {
	nbrs := v.nodes.Nearest(ll, k, maxMeters)
	out := make([]NodeHit, 0, len(nbrs))
	for _, nb := range nbrs {
		if n := v.m.Node(nb.Item); n != nil {
			out = append(out, NodeHit{Node: n, DistanceMeters: nb.DistanceMeters})
		}
	}
	return out
}

// NearestNodesWhere returns up to k nodes satisfying pred closest to ll.
// It expands the candidate pool geometrically until enough matches are
// found or the pool is exhausted.
func (v *View) NearestNodesWhere(ll geo.LatLng, k int, maxMeters float64, pred func(*osm.Node) bool) []NodeHit {
	for pool := k * 4; ; pool *= 4 {
		hits := v.NearestNodes(ll, pool, maxMeters)
		var out []NodeHit
		for _, h := range hits {
			if pred(h.Node) {
				out = append(out, h)
				if len(out) == k {
					return out
				}
			}
		}
		if len(hits) < pool {
			return out // pool exhausted
		}
	}
}

// Snap is a snap-to-way result: the closest point on the closest way
// segment, the way, and the nearer way endpoint node of that segment.
type Snap struct {
	Way            *osm.Way
	Position       geo.LatLng
	DistanceMeters float64
	// NodeID is the closer endpoint of the snapped segment, useful as a
	// routing graph entry point.
	NodeID osm.NodeID
}

// SnapToWay projects ll onto the nearest way within maxMeters.
// It returns false if no way is near.
func (v *View) SnapToWay(ll geo.LatLng, maxMeters float64) (Snap, bool) {
	best := Snap{DistanceMeters: maxMeters + 1}
	found := false
	search := pointRect(ll).ExpandedMeters(maxMeters)
	v.segs.Search(search, func(_ geo.Rect, ref SegmentRef) bool {
		w := v.m.Way(ref.WayID)
		if w == nil || ref.Index+1 >= len(w.NodeIDs) {
			return true
		}
		na := v.m.Node(w.NodeIDs[ref.Index])
		nb := v.m.Node(w.NodeIDs[ref.Index+1])
		if na == nil || nb == nil {
			return true
		}
		cp, t := geo.ClosestPointOnSegment(ll, v.m.NodePosition(na), v.m.NodePosition(nb))
		d := geo.DistanceMeters(ll, cp)
		if d < best.DistanceMeters {
			nodeID := na.ID
			if t > 0.5 {
				nodeID = nb.ID
			}
			best = Snap{Way: w, Position: cp, DistanceMeters: d, NodeID: nodeID}
			found = true
		}
		return true
	})
	if !found || best.DistanceMeters > maxMeters {
		return Snap{}, false
	}
	return best, true
}

// TokenPostings returns the node IDs whose tags contain the token, in
// ascending ID order. The returned slice is the caller's to keep.
func (v *View) TokenPostings(token string) []osm.NodeID {
	return append([]osm.NodeID(nil), v.post.list(strings.ToLower(token))...)
}

// ForEachPostingMatch merges the sorted posting lists of the given
// (already-tokenized, lowercase) tokens and calls fn once per distinct
// matching node, ascending by ID, with the number of token lists
// containing it. This is the retrieval core of search and forward geocode:
// a k-way merge over the shared lists in place of the map[NodeID]int the
// per-query intersection used to allocate and rehash.
func (v *View) ForEachPostingMatch(tokens []string, fn func(id osm.NodeID, hits int)) {
	lists := make([][]osm.NodeID, 0, len(tokens))
	for _, tok := range tokens {
		if lst := v.post.list(tok); len(lst) > 0 {
			lists = append(lists, lst)
		}
	}
	if len(lists) == 0 {
		return
	}
	idx := make([]int, len(lists))
	for {
		var min osm.NodeID
		found := false
		for i, l := range lists {
			if idx[i] < len(l) && (!found || l[idx[i]] < min) {
				min, found = l[idx[i]], true
			}
		}
		if !found {
			return
		}
		hits := 0
		for i, l := range lists {
			if idx[i] < len(l) && l[idx[i]] == min {
				hits++
				idx[i]++
			}
		}
		fn(min, hits)
	}
}

// TokenCount returns the number of distinct indexed tokens (the internal
// portal posting list is bookkeeping, not a searchable token).
func (v *View) TokenCount() int {
	n := len(v.post.tokens())
	if len(v.post.list(portalToken)) > 0 {
		n--
	}
	return n
}

// NodeCount returns the number of indexed nodes.
func (v *View) NodeCount() int { return v.nodes.Len() }

// PortalNodeIDs returns the IDs of every node tagged as a portal,
// ascending. It reads the reserved portal posting list, so it is O(answer)
// — no map walk — and comes straight off the snapshot on an attached
// server.
func (v *View) PortalNodeIDs() []osm.NodeID {
	return append([]osm.NodeID(nil), v.post.list(portalToken)...)
}

// Tokenize splits free text into lowercase alphanumeric tokens.
func Tokenize(text string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}

// TokenizeTags extracts searchable tokens from a tag set: all values, plus
// the keys of flag-like tags. Structural keys (IDs, coordinates) are
// skipped.
func TokenizeTags(tags osm.Tags) []string {
	seen := make(map[string]struct{})
	var out []string
	add := func(tok string) {
		if _, ok := seen[tok]; ok {
			return
		}
		seen[tok] = struct{}{}
		out = append(out, tok)
	}
	for k, v := range tags {
		if k == osm.TagPortalID || k == osm.TagLevel {
			continue
		}
		for _, tok := range Tokenize(v) {
			add(tok)
		}
		// Category keys (amenity=cafe etc.) are searchable by key too.
		switch k {
		case osm.TagAmenity, osm.TagShop, osm.TagBuilding, osm.TagProduct:
			for _, tok := range Tokenize(k) {
				add(tok)
			}
		}
	}
	return out
}
