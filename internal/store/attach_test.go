package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"openflame/internal/geo"
	"openflame/internal/osm"
)

// attachTown builds the deterministic city-block map the attach tests (and
// the committed testdata/snap_v2_indexed.golden) are made from.
func attachTown(t testing.TB, nodes int) *osm.Map {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	m := osm.NewMap("attach-town", osm.Frame{Kind: osm.FrameGeodetic})
	kinds := []string{"cafe", "library", "pharmacy", "bakery"}
	var ids []osm.NodeID
	for i := 0; i < nodes; i++ {
		tags := osm.Tags{osm.TagName: fmt.Sprintf("Place %d", i)}
		if i%3 == 0 {
			tags[osm.TagAmenity] = kinds[i%len(kinds)]
		}
		if i%50 == 0 {
			tags[osm.TagPortalID] = fmt.Sprintf("portal-%d", i)
		}
		ids = append(ids, m.AddNode(&osm.Node{
			Pos: geo.LatLng{
				Lat: 40.44 + rng.Float64()*0.02,
				Lng: -80.00 + rng.Float64()*0.02,
			},
			Tags: tags,
		}))
	}
	// Stride 5 over 4-node ways leaves every fifth node way-free, so tests
	// have unreferenced nodes they can RemoveNode.
	for i := 0; i+3 < len(ids); i += 5 {
		if _, err := m.AddWay(&osm.Way{NodeIDs: ids[i : i+4],
			Tags: osm.Tags{osm.TagHighway: "residential"}}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// attachFixture indexes attachTown from scratch, persists the index through
// a real snapshot file, and attaches a second store from the (mmap-aliased,
// where the platform allows) persisted index. Both stores index
// byte-identical maps, so every query must agree.
func attachFixture(t testing.TB, nodes int) (rebuilt, attached *Store) {
	t.Helper()
	m := attachTown(t, nodes)
	rebuilt = New(m)
	path := filepath.Join(t.TempDir(), "attach.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteSnapshotVersionsIndexed(f, nil, rebuilt.PersistedIndex()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	m2, _, idx, err := osm.LoadSnapshotFileIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	if idx == nil {
		t.Fatal("snapshot came back without its index")
	}
	attached, err = NewWithIndex(m2, idx)
	if err != nil {
		t.Fatal(err)
	}
	return rebuilt, attached
}

// TestGoldenSnapshotV2Attaches pins the on-disk format across the removal of
// snapshot v1: testdata/snap_v2_indexed.golden was written by
// WriteSnapshotVersionsIndexed at the commit BEFORE the v1 reader and writer
// were deleted (attachTown(40), NodeVers{1:3}). It must still load with its
// index attached and the map intact, and writing the same world today must
// produce the same bytes — the gob preamble included.
func TestGoldenSnapshotV2Attaches(t *testing.T) {
	path := filepath.Join("testdata", "snap_v2_indexed.golden")
	m, vers, idx, err := osm.LoadSnapshotFileIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	if idx == nil {
		t.Fatal("golden snapshot loaded without its index")
	}
	wantVers := map[osm.NodeID]uint64{1: 3}
	if !reflect.DeepEqual(vers, wantVers) {
		t.Fatalf("NodeVers = %v, want %v", vers, wantVers)
	}
	st, err := NewWithIndex(m, idx)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	town := attachTown(t, 40)
	var want, got bytes.Buffer
	if err := town.WriteXML(&want); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteXML(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("golden snapshot's map differs from attachTown(40)")
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rewritten bytes.Buffer
	if err := m.WriteSnapshotVersionsIndexed(&rewritten, vers, st.PersistedIndex()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, rewritten.Bytes()) {
		t.Fatalf("re-written snapshot differs from the golden (%d vs %d bytes): the v2 byte layout moved",
			rewritten.Len(), len(golden))
	}
}

func hitIDs(hits []NodeHit) []osm.NodeID {
	out := make([]osm.NodeID, len(hits))
	for i, h := range hits {
		out[i] = h.Node.ID
	}
	return out
}

func sortedIDs(ns []*osm.Node) []osm.NodeID {
	out := make([]osm.NodeID, len(ns))
	for i, n := range ns {
		out[i] = n.ID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestAttachedStoreMatchesRebuilt(t *testing.T) {
	rebuilt, attached := attachFixture(t, 400)

	if rebuilt.Bounds() != attached.Bounds() {
		t.Fatalf("bounds: %+v != %+v", attached.Bounds(), rebuilt.Bounds())
	}
	if rebuilt.NodeCount() != attached.NodeCount() {
		t.Fatalf("node count: %d != %d", attached.NodeCount(), rebuilt.NodeCount())
	}
	if rebuilt.TokenCount() != attached.TokenCount() {
		t.Fatalf("token count: %d != %d", attached.TokenCount(), rebuilt.TokenCount())
	}
	if !reflect.DeepEqual(rebuilt.PortalNodeIDs(), attached.PortalNodeIDs()) {
		t.Fatal("portal node IDs differ")
	}

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		lat := 40.44 + rng.Float64()*0.02
		lng := -80.00 + rng.Float64()*0.02
		r := geo.Rect{MinLat: lat, MinLng: lng,
			MaxLat: lat + rng.Float64()*0.01, MaxLng: lng + rng.Float64()*0.01}
		a := sortedIDs(rebuilt.NodesInRect(r))
		b := sortedIDs(attached.NodesInRect(r))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: NodesInRect %v != %v", trial, b, a)
		}
		ll := geo.LatLng{Lat: lat, Lng: lng}
		na := rebuilt.NearestNodes(ll, 5, 0)
		nb := attached.NearestNodes(ll, 5, 0)
		if !reflect.DeepEqual(hitIDs(na), hitIDs(nb)) {
			t.Fatalf("trial %d: NearestNodes %v != %v", trial, hitIDs(nb), hitIDs(na))
		}
		sa, oka := rebuilt.SnapToWay(ll, 500)
		sb, okb := attached.SnapToWay(ll, 500)
		if oka != okb || (oka && (sa.Way.ID != sb.Way.ID || sa.NodeID != sb.NodeID ||
			sa.Position != sb.Position)) {
			t.Fatalf("trial %d: SnapToWay (%v,%v) != (%v,%v)", trial, sb, okb, sa, oka)
		}
	}
	for _, tok := range []string{"cafe", "library", "place", "7", "amenity", "nosuchtoken"} {
		if !reflect.DeepEqual(rebuilt.TokenPostings(tok), attached.TokenPostings(tok)) {
			t.Fatalf("postings for %q differ", tok)
		}
	}
}

func TestMutationAfterAttach(t *testing.T) {
	_, s := attachFixture(t, 120)

	// Update: token moves, posting lists stay consistent.
	target := s.PortalNodeIDs()[0]
	if !s.UpdateNodeTags(target, osm.Tags{osm.TagName: "Renamed Lighthouse",
		osm.TagPortalID: "portal-0"}) {
		t.Fatal("update refused")
	}
	if got := s.TokenPostings("lighthouse"); len(got) != 1 || got[0] != target {
		t.Fatalf("new token not indexed: %v", got)
	}
	if ids := s.PortalNodeIDs(); len(ids) == 0 || ids[0] != target {
		t.Fatalf("portal posting lost after update: %v", ids)
	}

	// Insert: findable spatially and textually.
	newID := s.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4701, Lng: -79.971},
		Tags: osm.Tags{osm.TagName: "Brand New Kiosk"}})
	hits := s.NearestNodes(geo.LatLng{Lat: 40.4701, Lng: -79.971}, 1, 50)
	if len(hits) != 1 || hits[0].Node.ID != newID {
		t.Fatalf("inserted node not nearest to itself: %+v", hits)
	}
	if got := s.TokenPostings("kiosk"); len(got) != 1 || got[0] != newID {
		t.Fatalf("inserted node not in postings: %v", got)
	}

	// Delete a node that lives in the static (attached) tree: it must
	// vanish from rect, nearest, and posting queries via the dead set.
	// (Way-referenced nodes refuse removal, so find a free one.)
	var victim osm.NodeID
	var vpos geo.LatLng
	for _, cand := range s.TokenPostings("place") {
		p := s.Map().NodePosition(s.Map().Node(cand))
		if s.RemoveNode(cand) {
			victim, vpos = cand, p
			break
		}
	}
	if victim == 0 {
		t.Fatal("no removable node found")
	}
	for _, n := range s.NodesInRect(s.Bounds()) {
		if n.ID == victim {
			t.Fatal("deleted node still in rect results")
		}
	}
	for _, h := range s.NearestNodes(vpos, 10, 0) {
		if h.Node.ID == victim {
			t.Fatal("deleted node still in nearest results")
		}
	}
	for _, id := range s.TokenPostings("place") {
		if id == victim {
			t.Fatal("deleted node still in postings")
		}
	}
}

// TestMutateWhileReading hammers an attached store with concurrent readers
// and one writer; run under -race this is the mutation-after-attach
// safety check (the static columns alias an mmap, so it also proves
// copy-on-write posting updates never scribble on the mapping).
func TestMutateWhileReading(t *testing.T) {
	_, s := attachFixture(t, 200)
	ids := s.PortalNodeIDs()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ll := geo.LatLng{Lat: 40.44 + rng.Float64()*0.02, Lng: -80.00 + rng.Float64()*0.02}
				s.NearestNodes(ll, 3, 0)
				s.NodesInRect(geo.Rect{MinLat: ll.Lat, MinLng: ll.Lng,
					MaxLat: ll.Lat + 0.005, MaxLng: ll.Lng + 0.005})
				s.TokenPostings("place")
				s.SnapToWay(ll, 300)
			}
		}(int64(r))
	}
	for i := 0; i < 200; i++ {
		id := ids[i%len(ids)]
		s.UpdateNodeTags(id, osm.Tags{osm.TagName: fmt.Sprintf("Updated %d", i),
			osm.TagPortalID: fmt.Sprintf("portal-%d", i%len(ids)*50)})
	}
	close(stop)
	wg.Wait()
}

// TestOverlayCompaction drives enough mutations through an attached store
// to trip the amortized re-bulk-load and verifies nothing is lost.
func TestOverlayCompaction(t *testing.T) {
	_, s := attachFixture(t, 50)
	before := s.NodeCount()
	var added []osm.NodeID
	for i := 0; i < compactMinPending+200; i++ {
		added = append(added, s.AddNode(&osm.Node{
			Pos:  geo.LatLng{Lat: 40.43 + float64(i)*1e-5, Lng: -80.01},
			Tags: osm.Tags{osm.TagName: "infill"},
		}))
	}
	// Compaction fired at the threshold and folded the overlay in; only
	// the post-compaction remainder may still be pending.
	if s.nodes.side.Len() >= compactMinPending {
		t.Fatalf("side tree never compacted: %d pending", s.nodes.side.Len())
	}
	if s.nodes.static.Len() <= before {
		t.Fatalf("static tree did not absorb the overlay: %d", s.nodes.static.Len())
	}
	if got := s.NodeCount(); got != before+len(added) {
		t.Fatalf("node count %d, want %d", got, before+len(added))
	}
	// Every inserted node (pre- and post-compaction) is still findable.
	found := sortedIDs(s.NodesInRect(geo.Rect{MinLat: 40.42, MinLng: -80.02,
		MaxLat: 40.45, MaxLng: -80.00}))
	for _, id := range added {
		i := sort.Search(len(found), func(i int) bool { return found[i] >= id })
		if i == len(found) || found[i] != id {
			t.Fatalf("node %d lost after compaction", id)
		}
	}
	// Deletions survive compaction too: remove a static-tree node, compact
	// again via more inserts, and it must stay gone.
	victim := found[0]
	if !s.RemoveNode(victim) {
		t.Fatal("remove refused")
	}
	for i := 0; i < compactMinPending+1; i++ {
		s.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.431, Lng: -80.011}})
	}
	for _, n := range s.NodesInRect(s.Bounds()) {
		if n.ID == victim {
			t.Fatal("deleted node resurrected by compaction")
		}
	}
}
