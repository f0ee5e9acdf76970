package mapserver

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"openflame/internal/geo"
	"openflame/internal/osm"
	"openflame/internal/wire"
)

// syncServer builds one replica over its own copy of a tiny inventory map.
func syncServer(t *testing.T, name string) *Server {
	t.Helper()
	mb := osm.NewBuilder(name, osm.Frame{Kind: osm.FrameGeodetic})
	// Two shelves and a connecting aisle; IDs are assigned in insertion
	// order, so every replica built this way has identical content.
	a := mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4401, Lng: -79.9901},
		Tags: osm.Tags{"name": "Shelf A", "product": "tea"}})
	b := mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.4402, Lng: -79.9902},
		Tags: osm.Tags{"name": "Shelf B", "product": "coffee"}})
	if _, err := mb.AddWay(&osm.Way{NodeIDs: []osm.NodeID{a, b},
		Tags: osm.Tags{"highway": "footway"}}); err != nil {
		t.Fatal(err)
	}
	m := mb.Build()
	srv, err := New(Config{Name: name, Map: m, QueryCacheEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestChangesEndpoint: GET /v1/changes pages the log, rejects bad cursors
// with 400, and requires GET.
func TestChangesEndpoint(t *testing.T) {
	srv := syncServer(t, "a")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.ApplyInventoryUpdate(1, osm.Tags{"name": "Shelf A", "product": "oolong tea"})

	res, err := http.Get(ts.URL + "/v1/changes?since=0")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	var resp wire.ChangesResponse
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 1 || len(resp.Changes) != 1 || resp.Changes[0].NodeID != 1 {
		t.Fatalf("changes = %+v", resp)
	}
	if resp.Changes[0].Tags["product"] != "oolong tea" {
		t.Fatalf("change tags = %v", resp.Changes[0].Tags)
	}

	// An absurd cursor (larger than any head) answers empty, not a panic.
	if res, err := http.Get(ts.URL + "/v1/changes?since=18446744073709551615"); err != nil {
		t.Fatal(err)
	} else {
		var huge wire.ChangesResponse
		err := json.NewDecoder(res.Body).Decode(&huge)
		res.Body.Close()
		if err != nil || res.StatusCode != http.StatusOK || len(huge.Changes) != 0 {
			t.Fatalf("max-cursor pull: status=%d err=%v changes=%+v", res.StatusCode, err, huge.Changes)
		}
	}

	if res, err := http.Get(ts.URL + "/v1/changes?since=bogus"); err != nil {
		t.Fatal(err)
	} else {
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad cursor status = %d", res.StatusCode)
		}
	}
	if res, err := http.Post(ts.URL+"/v1/changes", "application/json", nil); err != nil {
		t.Fatal(err)
	} else {
		res.Body.Close()
		if res.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST status = %d", res.StatusCode)
		}
	}
}

// TestChangesEndpointPolicy: the endpoint is guarded as its own service, so
// replication can be locked to the operator's identities.
func TestChangesEndpointPolicy(t *testing.T) {
	srv := syncServer(t, "a")
	srv.auth = &Policy{
		Default: Rule{Public: true},
		PerService: map[wire.Service]Rule{
			wire.SvcChanges: {UserDomains: []string{"ops.example"}},
		},
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res, err := http.Get(ts.URL + "/v1/changes")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusForbidden {
		t.Fatalf("anonymous pull status = %d, want 403", res.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/changes", nil)
	req.Header.Set(HeaderUser, "replica-2@ops.example")
	res, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("authorized pull status = %d", res.StatusCode)
	}
}

// TestSyncerConvergesAndInvalidatesCaches: a pull applies the origin's
// update, bumps the generation, and flushes the sibling's query cache; the
// reverse pull is a no-op.
func TestSyncerConvergesAndInvalidatesCaches(t *testing.T) {
	a := syncServer(t, "a")
	b := syncServer(t, "b")
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()

	req := wire.SearchRequest{Query: "matcha", Limit: 5}
	if got := b.Search(req); len(got.Results) != 0 {
		t.Fatalf("pre-sync search on b = %+v", got)
	}
	genBefore := b.Generation()

	a.ApplyInventoryUpdate(1, osm.Tags{"name": "Shelf A", "product": "matcha"})

	sb := NewSyncer(b, nil)
	sb.SetPeers([]string{tsA.URL})
	applied, err := sb.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Fatalf("sync applied %d changes, want 1", applied)
	}
	if b.Generation() == genBefore {
		t.Fatal("sync did not bump the sibling's generation")
	}
	if got := b.Search(req); len(got.Results) != 1 {
		t.Fatalf("post-sync search on b = %+v (stale query cache?)", got)
	}
	if a.ChangeSeq() != 1 || b.ChangeSeq() != 1 {
		t.Fatalf("positions diverge: a=%d b=%d", a.ChangeSeq(), b.ChangeSeq())
	}

	// The origin pulling back its own update must see a no-op.
	sa := NewSyncer(a, nil)
	sa.SetPeers([]string{tsB.URL})
	if applied, err := sa.SyncOnce(context.Background()); err != nil || applied != 0 {
		t.Fatalf("reverse sync applied %d changes (err %v), want 0", applied, err)
	}
	if a.ChangeSeq() != 1 {
		t.Fatalf("ping-pong: origin position moved to %d", a.ChangeSeq())
	}
	// Idempotent repeat.
	if applied, _ := sb.SyncOnce(context.Background()); applied != 0 {
		t.Fatalf("repeat sync applied %d changes", applied)
	}
}

// TestSyncerPagesThroughLargeLogs: more changes than one pull returns are
// drained to the head in a single SyncOnce, and the drain COALESCES: only
// each node's newest state is applied — the sibling never materializes
// (or re-logs) the overwritten intermediate history.
func TestSyncerPagesThroughLargeLogs(t *testing.T) {
	a := syncServer(t, "a")
	b := syncServer(t, "b")
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()

	total := wire.MaxChangesPerPull*2 + 7
	for i := 0; i < total; i++ {
		a.ApplyInventoryUpdate(1, osm.Tags{"name": "Shelf A", "product": fmt.Sprintf("batch-%d", i)})
	}
	sb := NewSyncer(b, nil)
	sb.SetPeers([]string{tsA.URL})
	applied, err := sb.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Fatalf("coalesced drain applied %d changes, want 1 (newest state only)", applied)
	}
	n := b.Store().Map().Node(1)
	if n.Tags.Get("product") != fmt.Sprintf("batch-%d", total-1) {
		t.Fatalf("final tags = %v", n.Tags)
	}
	// Caught up: a repeat round pulls nothing new.
	if applied, _ := sb.SyncOnce(context.Background()); applied != 0 {
		t.Fatalf("repeat round applied %d changes", applied)
	}
}

// TestSyncerNoEchoOnMultiUpdateHistory is the echo-loop regression: two
// replicas pulling each other after a node changed SEVERAL times on one of
// them must converge and then go quiet — without coalescing, replaying the
// sibling's log would regress the node to the intermediate value, re-log
// it, and the pair would exchange the same changes forever.
func TestSyncerNoEchoOnMultiUpdateHistory(t *testing.T) {
	a := syncServer(t, "a")
	b := syncServer(t, "b")
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()

	// Two updates to the same node on a before anyone syncs.
	a.ApplyInventoryUpdate(1, osm.Tags{"name": "Shelf A", "product": "v1"})
	a.ApplyInventoryUpdate(1, osm.Tags{"name": "Shelf A", "product": "v2"})

	sa := NewSyncer(a, nil)
	sa.SetPeers([]string{tsB.URL})
	sb := NewSyncer(b, nil)
	sb.SetPeers([]string{tsA.URL})

	if applied, err := sb.SyncOnce(context.Background()); err != nil || applied != 1 {
		t.Fatalf("first b round: applied=%d err=%v, want 1 (coalesced)", applied, err)
	}
	// From here on every round on either side must be a no-op.
	for round := 0; round < 4; round++ {
		na, err := sa.SyncOnce(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		nb, err := sb.SyncOnce(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if na != 0 || nb != 0 {
			t.Fatalf("round %d echoed changes: a applied %d, b applied %d", round, na, nb)
		}
	}
	if got := b.Store().Map().Node(1).Tags.Get("product"); got != "v2" {
		t.Fatalf("b converged to %q, want v2", got)
	}
	if a.ChangeSeq() != 2 || b.ChangeSeq() != 1 {
		t.Fatalf("positions moved after quiescence: a=%d b=%d", a.ChangeSeq(), b.ChangeSeq())
	}
}

// TestSyncerEchoCannotRollBackNewerWrite is the lost-update regression:
// a sibling's ECHO of an older value, arriving after the origin already
// moved on to a newer one, must not overwrite it — node versions, not tag
// comparison, decide what is newer.
func TestSyncerEchoCannotRollBackNewerWrite(t *testing.T) {
	a := syncServer(t, "a")
	b := syncServer(t, "b")
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	sa := NewSyncer(a, nil)
	sa.SetPeers([]string{tsB.URL})
	sb := NewSyncer(b, nil)
	sb.SetPeers([]string{tsA.URL})

	// v1 lands on a and replicates to b (b now holds an echo of v1).
	a.ApplyInventoryUpdate(1, osm.Tags{"name": "Shelf A", "product": "v1"})
	if _, err := sb.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	// a moves on to v2 BEFORE pulling b.
	a.ApplyInventoryUpdate(1, osm.Tags{"name": "Shelf A", "product": "v2"})
	// a pulls b: the echoed v1 carries version 1, a's node is at version 2
	// — the echo must be discarded, not applied.
	if applied, err := sa.SyncOnce(context.Background()); err != nil || applied != 0 {
		t.Fatalf("echo pull applied %d changes (err %v), want 0", applied, err)
	}
	if got := a.Store().Map().Node(1).Tags.Get("product"); got != "v2" {
		t.Fatalf("newer write lost: a rolled back to %q", got)
	}
	// b catches up to v2; the set converges there and goes quiet.
	if _, err := sb.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := b.Store().Map().Node(1).Tags.Get("product"); got != "v2" {
		t.Fatalf("b converged to %q, want v2", got)
	}
	for round := 0; round < 3; round++ {
		na, _ := sa.SyncOnce(context.Background())
		nb, _ := sb.SyncOnce(context.Background())
		if na != 0 || nb != 0 {
			t.Fatalf("round %d not quiescent: a=%d b=%d", round, na, nb)
		}
	}
}

// TestSyncerConcurrentConflictConverges: the same node written on BOTH
// replicas before either syncs (equal versions, different tags) settles on
// one deterministic winner everywhere.
func TestSyncerConcurrentConflictConverges(t *testing.T) {
	a := syncServer(t, "a")
	b := syncServer(t, "b")
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	sa := NewSyncer(a, nil)
	sa.SetPeers([]string{tsB.URL})
	sb := NewSyncer(b, nil)
	sb.SetPeers([]string{tsA.URL})

	a.ApplyInventoryUpdate(1, osm.Tags{"name": "Shelf A", "product": "apples"})
	b.ApplyInventoryUpdate(1, osm.Tags{"name": "Shelf A", "product": "bananas"})
	for round := 0; round < 3; round++ {
		if _, err := sa.SyncOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := sb.SyncOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ta := a.Store().Map().Node(1).Tags.Get("product")
	tb := b.Store().Map().Node(1).Tags.Get("product")
	if ta != tb {
		t.Fatalf("conflict did not converge: a=%q b=%q", ta, tb)
	}
	if na, _ := sa.SyncOnce(context.Background()); na != 0 {
		t.Fatalf("converged set still applying changes: %d", na)
	}
}

// TestSyncerRecoversFromPeerRestart: a peer that restarts with a fresh
// (in-memory) change log regresses its head below the puller's cursor;
// the cursor must reset and replay rather than skip the changes the
// reborn peer logged since.
func TestSyncerRecoversFromPeerRestart(t *testing.T) {
	old := syncServer(t, "a")
	b := syncServer(t, "b")
	// The "peer" swaps its backing server mid-test, simulating a restart
	// at the same URL.
	var cur *Server = old
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	for i := 0; i < 3; i++ {
		old.ApplyInventoryUpdate(1, osm.Tags{"name": "Shelf A", "product": fmt.Sprintf("pre-%d", i)})
	}
	sb := NewSyncer(b, nil)
	sb.SetPeers([]string{ts.URL})
	if _, err := sb.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := b.Store().Map().Node(1).Tags.Get("product"); got != "pre-2" {
		t.Fatalf("pre-restart sync converged to %q", got)
	}

	// Restart: fresh server, fresh log, one NEW change at seq 1 — far
	// below b's cursor of 3.
	reborn := syncServer(t, "a")
	reborn.ApplyInventoryUpdate(2, osm.Tags{"name": "Shelf B", "product": "post-restart"})
	cur = reborn
	applied, err := sb.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("reborn peer's change was skipped (cursor not reset)")
	}
	if got := b.Store().Map().Node(2).Tags.Get("product"); got != "post-restart" {
		t.Fatalf("post-restart change missing: %q", got)
	}
	// Exactly the one post-restart change applied (the reborn peer's log
	// holds nothing else to replay).
	if applied != 1 {
		t.Fatalf("restart replay applied %d changes, want 1", applied)
	}
}

// TestSyncerToleratesDeadPeer: one unreachable sibling reports an error but
// does not block convergence with the others.
func TestSyncerToleratesDeadPeer(t *testing.T) {
	a := syncServer(t, "a")
	b := syncServer(t, "b")
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()

	a.ApplyInventoryUpdate(1, osm.Tags{"name": "Shelf A", "product": "survivor"})

	sb := NewSyncer(b, nil)
	sb.SetPeers([]string{"http://127.0.0.1:1", tsA.URL}) // dead peer first
	applied, err := sb.SyncOnce(context.Background())
	if err == nil {
		t.Fatal("dead peer produced no error")
	}
	if applied != 1 {
		t.Fatalf("live peer's change not applied: %d", applied)
	}
}

// TestSyncVerZeroFollowsEqualVersionRule: a change without a version (Ver
// 0, as a peer omitting the field sends it) takes the same path as every
// other change. Aimed at a node still at version 0 it is an equal-version
// conflict, so replicas receiving the same pair in opposite orders keep
// the same winner; aimed at a node already at version 1 or more it is
// stale and ignored.
func TestSyncVerZeroFollowsEqualVersionRule(t *testing.T) {
	a, b := syncServer(t, "a"), syncServer(t, "b")
	x := wire.Change{NodeID: 1, Tags: map[string]string{"name": "Shelf A", "product": "x-zero"}}
	y := wire.Change{NodeID: 1, Tags: map[string]string{"name": "Shelf A", "product": "y-zero"}}
	a.ApplySyncChange(x)
	a.ApplySyncChange(y)
	b.ApplySyncChange(y)
	b.ApplySyncChange(x)
	ta := a.Store().Map().Node(1).Tags.Get("product")
	tb := b.Store().Map().Node(1).Tags.Get("product")
	if ta != tb || ta != "y-zero" {
		t.Fatalf("Ver-0 conflict diverged: a=%q b=%q, want both y-zero", ta, tb)
	}

	if !a.ApplyInventoryUpdate(2, osm.Tags{"name": "Shelf B", "product": "espresso"}) {
		t.Fatal("update refused")
	}
	gen := a.Generation()
	if a.ApplySyncChange(wire.Change{NodeID: 2, Tags: map[string]string{"name": "Shelf B", "product": "zzz"}}) {
		t.Fatal("Ver-0 change overwrote a node at version 1")
	}
	if got := a.Store().Map().Node(2).Tags.Get("product"); got != "espresso" || a.Generation() != gen {
		t.Fatalf("node 2 product = %q (gen %d -> %d) after a stale Ver-0 change", got, gen, a.Generation())
	}
}
