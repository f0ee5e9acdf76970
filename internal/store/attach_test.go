package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
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
	mb := osm.NewBuilder("attach-town", osm.Frame{Kind: osm.FrameGeodetic})
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
		ids = append(ids, mb.AddNode(&osm.Node{
			Pos: geo.LatLng{
				Lat: 40.44 + rng.Float64()*0.02,
				Lng: -80.00 + rng.Float64()*0.02,
			},
			Tags: tags,
		}))
	}
	// Stride 5 over 4-node ways leaves every fifth node way-free.
	for i := 0; i+3 < len(ids); i += 5 {
		if _, err := mb.AddWay(&osm.Way{NodeIDs: ids[i : i+4],
			Tags: osm.Tags{osm.TagHighway: "residential"}}); err != nil {
			t.Fatal(err)
		}
	}
	return mb.Build()
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
	rs, as := attachFixture(t, 400)
	rebuilt, attached := rs.View(), as.View()

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
	target := s.View().PortalNodeIDs()[0]
	if !s.UpdateNodeTags(target, osm.Tags{osm.TagName: "Renamed Lighthouse",
		osm.TagPortalID: "portal-0"}) {
		t.Fatal("update refused")
	}
	v := s.View()
	if got := v.TokenPostings("lighthouse"); len(got) != 1 || got[0] != target {
		t.Fatalf("new token not indexed: %v", got)
	}
	if ids := v.PortalNodeIDs(); len(ids) == 0 || ids[0] != target {
		t.Fatalf("portal posting lost after update: %v", ids)
	}
	for _, id := range v.TokenPostings("0") {
		if id == target {
			t.Fatal("old name token still indexed")
		}
	}
	if got := v.PersistedIndex(); len(got.Tokens) != v.TokenCount()+1 {
		t.Fatalf("exported %d tokens, view has %d plus the portal list", len(got.Tokens), v.TokenCount())
	}
}

// TestMutateWhileReading hammers an attached store with concurrent readers
// and one writer; run under -race this is the mutation-after-attach
// safety check (the static columns alias an mmap, so it also proves
// copy-on-write posting updates never scribble on the mapping). Every
// reader pins one view per round and checks that its postings and its map
// agree: no read ever sees half a write.
func TestMutateWhileReading(t *testing.T) {
	_, s := attachFixture(t, 200)
	ids := s.View().PortalNodeIDs()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
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
				v := s.View()
				ll := geo.LatLng{Lat: 40.44 + rng.Float64()*0.02, Lng: -80.00 + rng.Float64()*0.02}
				v.NearestNodes(ll, 3, 0)
				v.NodesInRect(geo.Rect{MinLat: ll.Lat, MinLng: ll.Lng,
					MaxLat: ll.Lat + 0.005, MaxLng: ll.Lng + 0.005})
				v.SnapToWay(ll, 300)
				id := ids[rng.Intn(len(ids))]
				for _, tok := range TokenizeTags(v.Map().Node(id).Tags) {
					if lst := v.TokenPostings(tok); sort.Search(len(lst), func(i int) bool { return lst[i] >= id }) == len(lst) {
						errs <- fmt.Errorf("view %d: node %d's token %q not in its postings", v.Seq, id, tok)
						return
					}
				}
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
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// readsOf renders a deterministic transcript of every read a view answers
// — spatial, textual and exported — node tags included, so two views that
// answer alike render alike.
func readsOf(v *View) string {
	var b strings.Builder
	fmt.Fprintf(&b, "bounds %v nodes %d tokens %d portals %v\n", v.Bounds(), v.NodeCount(), v.TokenCount(), v.PortalNodeIDs())
	node := func(what string, n *osm.Node, d float64) {
		fmt.Fprintf(&b, "%s %d %.9f %q\n", what, n.ID, d, canonicalTags(n.Tags))
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		ll := geo.LatLng{Lat: 40.44 + rng.Float64()*0.02, Lng: -80.00 + rng.Float64()*0.02}
		for _, n := range v.NodesInRect(geo.Rect{MinLat: ll.Lat, MinLng: ll.Lng, MaxLat: ll.Lat + 0.004, MaxLng: ll.Lng + 0.004}) {
			node("rect", n, 0)
		}
		for _, h := range v.NearestNodes(ll, 5, 0) {
			node("nearest", h.Node, h.DistanceMeters)
		}
		for _, h := range v.NearestNodesWhere(ll, 2, 0, func(n *osm.Node) bool { return n.Tags.Has(osm.TagAmenity) }) {
			node("where", h.Node, h.DistanceMeters)
		}
		if sn, ok := v.SnapToWay(ll, 500); ok {
			fmt.Fprintf(&b, "snap %d %d %v %.9f\n", sn.Way.ID, sn.NodeID, sn.Position, sn.DistanceMeters)
		}
	}
	v.ForEachPostingMatch([]string{"cafe", "renamed", "place"}, func(id osm.NodeID, hits int) {
		fmt.Fprintf(&b, "match %d %d\n", id, hits)
	})
	idx := v.PersistedIndex()
	fmt.Fprintf(&b, "index %v %v %v\n", idx.Tokens, idx.PostOff, idx.Postings)
	return b.String()
}

// TestViewIsolation: a view taken before writes answers every read exactly
// as it did before them — however many writes land, folds included.
func TestViewIsolation(t *testing.T) {
	_, s := attachFixture(t, 1200)
	v := s.View()
	before, log := readsOf(v), v.ChangesSince(0, 0)
	for i, id := range v.TokenPostings("place") {
		s.UpdateNodeTags(id, osm.Tags{osm.TagName: fmt.Sprintf("Renamed %d", i), osm.TagAmenity: "cafe"})
	}
	if s.View().Seq != uint64(len(v.TokenPostings("place"))) {
		t.Fatalf("head at %d after %d writes", s.View().Seq, len(v.TokenPostings("place")))
	}
	if readsOf(v) != before || !reflect.DeepEqual(v.ChangesSince(0, 0), log) || v.Seq != 0 {
		t.Fatal("a write changed what an earlier view answers")
	}
}

// pinnedWrites is how many writes the pinned view of TestViewWalkAcrossFold
// holds in its map's overlay.
const pinnedWrites = 10

// TestViewWalkAcrossFold: one reader walks a pinned view's map — Node,
// Nodes, WayNodes, Bounds — while the writer applies more distinct-node tag
// writes than compactMinPending, so a WithNode fold lands mid-walk. The
// pinned map already holds an overlay of its own. An osm.Map takes no
// lock, so under -race this checks that deriving the next map never writes
// what the pinned one reads, and every walk must answer exactly the pinned
// generation.
func TestViewWalkAcrossFold(t *testing.T) {
	_, s := attachFixture(t, 1200)
	ids := s.View().TokenPostings("place")
	if len(ids) <= compactMinPending+pinnedWrites {
		t.Fatalf("fixture has %d nodes, need more than %d", len(ids), compactMinPending+pinnedWrites)
	}
	rename := func(i int, id osm.NodeID) {
		if !s.UpdateNodeTags(id, osm.Tags{osm.TagName: fmt.Sprintf("Renamed %d", i)}) {
			t.Fatalf("update of %d refused", id)
		}
	}
	for i, id := range ids[:pinnedWrites] {
		rename(i, id)
	}
	v := s.View()
	m := v.Map()
	if st := m.StorageStats(); st.OverlayNodes != pinnedWrites {
		t.Fatalf("pinned map has %d overlay nodes, want %d", st.OverlayNodes, pinnedWrites)
	}
	walk := func() string {
		var b strings.Builder
		fmt.Fprintf(&b, "gen %d bounds %v\n", m.Generation(), m.Bounds())
		m.Nodes(func(n *osm.Node) bool {
			fmt.Fprintf(&b, "node %d %v %v %v\n", n.ID, n.Pos, n.Tags, m.Node(n.ID).Tags)
			return true
		})
		m.Ways(func(w *osm.Way) bool {
			for _, n := range m.WayNodes(w) {
				fmt.Fprintf(&b, "way %d %d %v\n", w.ID, n.ID, n.Pos)
			}
			return true
		})
		return b.String()
	}
	want := walk()
	if m.Generation() != v.Gen {
		t.Fatalf("view generation %d, its map's %d", v.Gen, m.Generation())
	}

	done := make(chan struct{})
	walks := make(chan int)
	go func() {
		n := 0
		defer func() { walks <- n }()
		for {
			if got := walk(); got != want {
				t.Error("a walk of the pinned view saw another generation")
				return
			}
			n++
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for i, id := range ids[pinnedWrites:] {
		rename(pinnedWrites+i, id)
	}
	close(done)
	if n := <-walks; n == 0 {
		t.Fatal("the reader finished no walk")
	}
	if st := s.View().Map().StorageStats(); st.OverlayNodes >= compactMinPending {
		t.Fatalf("the writes never folded: %d pending", st.OverlayNodes)
	}
	if walk() != want {
		t.Fatal("the pinned view changed after the writes")
	}
}

// TestOverlayCompaction drives more distinct-node tag writes through an
// attached store than compactMinPending, which folds both the map's node
// overlay and the posting delta, and checks the current view answers every
// read exactly like a store rebuilt from scratch over its map.
func TestOverlayCompaction(t *testing.T) {
	_, s := attachFixture(t, 1200)
	ids := s.View().TokenPostings("place")
	if len(ids) <= compactMinPending {
		t.Fatalf("fixture has %d nodes, need more than %d", len(ids), compactMinPending)
	}
	for i, id := range ids {
		tags := osm.Tags{osm.TagName: fmt.Sprintf("Renamed %d", i)}
		if i%7 == 0 {
			tags[osm.TagPortalID] = fmt.Sprintf("portal-renamed-%d", i)
		}
		if !s.UpdateNodeTags(id, tags) {
			t.Fatalf("update of %d refused", id)
		}
	}
	v := s.View()
	if st := v.Map().StorageStats(); st.OverlayNodes >= compactMinPending {
		t.Fatalf("node overlay never folded: %d pending", st.OverlayNodes)
	}
	if len(v.post.delta) >= compactMinPending {
		t.Fatalf("posting delta never folded: %d pending", len(v.post.delta))
	}
	if got, want := readsOf(v), readsOf(New(v.Map()).View()); got != want {
		t.Fatal("current view answers differently from a store rebuilt over its map")
	}
}
