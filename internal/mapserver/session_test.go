package mapserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"openflame/internal/osm"
	"openflame/internal/wire"
)

// namedNodeID returns a node carrying a name tag, for inventory updates.
func namedNodeID(t *testing.T, srv *Server) osm.NodeID {
	t.Helper()
	var id osm.NodeID
	found := false
	srv.Store().Map().Nodes(func(n *osm.Node) bool {
		if n.Tags.Get(osm.TagName) != "" {
			id, found = n.ID, true
			return false
		}
		return true
	})
	if !found {
		t.Fatal("no named node")
	}
	return id
}

// mark1 wraps one origin mark in a request envelope.
func mark1(origin string, seq uint64) *wire.ReadConsistency {
	return &wire.ReadConsistency{Marks: []wire.SessionMark{{Origin: origin, Seq: seq}}}
}

// TestFreshAt pins the freshness rule: the origin vouches for its own log,
// everyone else through recorded sync positions, and a zero mark imposes
// nothing.
func TestFreshAt(t *testing.T) {
	srv := cityServer(t)
	if !srv.FreshAt(nil) || !srv.FreshAt(&wire.ReadConsistency{}) {
		t.Fatal("empty marks must always be fresh")
	}
	id := namedNodeID(t, srv)
	if !srv.ApplyInventoryUpdate(id, osm.Tags{osm.TagName: "renamed"}) {
		t.Fatal("update failed")
	}
	seq := srv.ChangeSeq()
	if seq == 0 {
		t.Fatal("no change logged")
	}
	// Own log: at or past the mark.
	if !srv.FreshAt(mark1("city", seq)) {
		t.Fatal("origin not fresh at its own head")
	}
	if srv.FreshAt(mark1("city", seq+1)) {
		t.Fatal("fresh beyond own head")
	}
	// Foreign origin: only through a recorded sync position.
	if srv.FreshAt(mark1("sibling", 1)) {
		t.Fatal("fresh for a sibling never synced from")
	}
	srv.NoteSyncPosition("sibling", 0, 3, false)
	if !srv.FreshAt(mark1("sibling", 3)) {
		t.Fatal("not fresh despite synced position")
	}
	if srv.FreshAt(mark1("sibling", 4)) {
		t.Fatal("fresh past the synced position")
	}
	// Positions only move forward.
	srv.NoteSyncPosition("sibling", 0, 1, false)
	if _, got := srv.SyncPosition("sibling"); got != 3 {
		t.Fatalf("sync position regressed to %d", got)
	}
}

// TestWaitFreshAbsorbsLag: a read positioned barely behind waits out
// anti-entropy instead of refusing, bounded by ConsistencyWait.
func TestWaitFreshAbsorbsLag(t *testing.T) {
	city := cityMap()
	srv, err := New(Config{Name: "city", Map: city, ConsistencyWait: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rc := mark1("sibling", 5)
	go func() {
		time.Sleep(20 * time.Millisecond)
		srv.NoteSyncPosition("sibling", 0, 5, false)
	}()
	start := time.Now()
	if !srv.WaitFresh(context.Background(), rc) {
		t.Fatal("read not admitted after anti-entropy caught up")
	}
	if time.Since(start) > time.Second {
		t.Fatal("WaitFresh waited past the catch-up")
	}
	// A mark nobody closes times out stale; the context bounds it too.
	srv2, err := New(Config{Name: "city2", Map: cityMap(), ConsistencyWait: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if srv2.WaitFresh(context.Background(), rc) {
		t.Fatal("unclosable mark admitted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if srv2.WaitFresh(ctx, rc) {
		t.Fatal("cancelled context admitted")
	}
}

// postSession POSTs a request body and returns status + body.
func postSession(t *testing.T, ts *httptest.Server, path string, body interface{}) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, buf.Bytes()
}

// TestHTTPSessionMarks: a sessioned read earns the server's updated mark;
// an unsatisfiable mark earns wire.StatusStaleReplica; a legacy read earns
// neither.
func TestHTTPSessionMarks(t *testing.T) {
	srv := cityServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := namedNodeID(t, srv)
	if !srv.ApplyInventoryUpdate(id, osm.Tags{osm.TagName: "Session Cafe"}) {
		t.Fatal("update failed")
	}

	// Legacy read: no envelope in, no mark out.
	req := wire.SearchRequest{Query: "Session", Limit: 5}
	status, body := postSession(t, ts, "/search", req)
	if status != http.StatusOK {
		t.Fatalf("legacy status = %d", status)
	}
	if strings.Contains(string(body), `"session"`) {
		t.Fatalf("legacy response carries a session mark: %s", body)
	}

	// Sessioned read (empty envelope): mark returned, covering the write.
	req.SetConsistency(&wire.ReadConsistency{})
	status, body = postSession(t, ts, "/search", req)
	if status != http.StatusOK {
		t.Fatalf("sessioned status = %d", status)
	}
	var resp wire.SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Session == nil || resp.Session.Origin != "city" || resp.Session.Seq != srv.ChangeSeq() {
		t.Fatalf("session mark = %+v, want origin=city seq=%d", resp.Session, srv.ChangeSeq())
	}

	// A mark this server cannot honor: stale replica.
	req.SetConsistency(mark1("sibling", 9))
	status, body = postSession(t, ts, "/search", req)
	if status != wire.StatusStaleReplica {
		t.Fatalf("stale status = %d, body %s", status, body)
	}
	var e wire.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "stale replica") {
		t.Fatalf("stale error = %+v (%v)", e, err)
	}

	// Once anti-entropy has consumed the sibling's log, the same read is
	// admitted.
	srv.NoteSyncPosition("sibling", 0, 9, false)
	status, _ = postSession(t, ts, "/search", req)
	if status != http.StatusOK {
		t.Fatalf("status after catch-up = %d", status)
	}
}

// TestSessionEnvelopeInvisibleToCache: the same query with and without a
// session envelope shares one cache entry — the envelope is stripped
// before the compute path, so sessions cannot fragment (or poison) the
// generation-keyed cache.
func TestSessionEnvelopeInvisibleToCache(t *testing.T) {
	city := cityMap()
	srv, err := New(Config{Name: "city", Map: city, QueryCacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	plain := wire.SearchRequest{Query: "Street", Limit: 3}
	if status, _ := postSession(t, ts, "/search", plain); status != http.StatusOK {
		t.Fatal("plain read failed")
	}
	miss := srv.QueryCacheStats().Misses
	sessioned := wire.SearchRequest{Query: "Street", Limit: 3}
	sessioned.SetConsistency(mark1("city", 0))
	if status, _ := postSession(t, ts, "/search", sessioned); status != http.StatusOK {
		t.Fatal("sessioned read failed")
	}
	st := srv.QueryCacheStats()
	if st.Misses != miss {
		t.Fatalf("sessioned read missed the cache (misses %d -> %d): envelope leaked into the key", miss, st.Misses)
	}
	if st.Hits == 0 {
		t.Fatal("sessioned read did not hit the shared entry")
	}
}

// TestChangesResponseCarriesName: pullers learn the origin identity their
// cursors position.
func TestChangesResponseCarriesName(t *testing.T) {
	srv := cityServer(t)
	if got := srv.changesAt(srv.store.View(), 0).Name; got != "city" {
		t.Fatalf("ChangesResponse.Name = %q", got)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	res, err := http.Get(fmt.Sprintf("%s/v1/changes?since=0", ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var resp wire.ChangesResponse
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Name != "city" {
		t.Fatalf("wire Name = %q", resp.Name)
	}
}

// TestSyncPositionResetsOnPeerLogRestart: when a peer's change log
// restarts (head regresses below the cursor), the puller's recorded sync
// position must be overwritten DOWNWARD — the old incarnation's position
// vouches for nothing, and keeping it would let this replica approve
// session marks minted by the restarted origin for writes it never
// pulled.
func TestSyncPositionResetsOnPeerLogRestart(t *testing.T) {
	mkOrigin := func(updates int) *Server {
		srv, err := New(Config{Name: "city-A", Map: cityMap()})
		if err != nil {
			t.Fatal(err)
		}
		id := namedNodeID(t, srv)
		for i := 0; i < updates; i++ {
			if !srv.ApplyInventoryUpdate(id, osm.Tags{osm.TagName: fmt.Sprintf("v%d", i)}) {
				t.Fatal("update refused")
			}
		}
		return srv
	}
	// A swappable backend stands in for the origin restarting behind one
	// stable URL.
	var backend atomic.Value
	backend.Store(mkOrigin(3).Handler())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		backend.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer ts.Close()

	puller, err := New(Config{Name: "city-B", Map: cityMap()})
	if err != nil {
		t.Fatal(err)
	}
	sy := NewSyncer(puller, ts.Client())
	sy.AddPeer(ts.URL)
	if _, err := sy.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, got := puller.SyncPosition("city-A"); got != 3 {
		t.Fatalf("sync position = %d, want 3", got)
	}
	if !puller.FreshAt(mark1("city-A", 3)) {
		t.Fatal("not fresh at the consumed head")
	}

	// The origin "restarts": fresh log, one change, same name and URL.
	backend.Store(mkOrigin(1).Handler())
	if _, err := sy.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, got := puller.SyncPosition("city-A"); got != 1 {
		t.Fatalf("sync position after restart = %d, want 1 (reset)", got)
	}
	if puller.FreshAt(mark1("city-A", 3)) {
		t.Fatal("still vouching for the old incarnation's mark")
	}
	if !puller.FreshAt(mark1("city-A", 1)) {
		t.Fatal("not fresh at the new incarnation's head")
	}
}

// TestSyncPositionResetOnOvertakingRestart closes the subtler restart
// shape: the origin restarts AND writes past the puller's old cursor
// before the next pull, so head regression never shows. The log
// incarnation id is what reveals it — the puller re-drains from zero and
// re-keys its position to the new incarnation, and marks minted by the
// OLD incarnation are refused by incarnation mismatch even though the
// numeric position would satisfy them.
func TestSyncPositionResetOnOvertakingRestart(t *testing.T) {
	mkOrigin := func(updates int) *Server {
		srv, err := New(Config{Name: "city-A", Map: cityMap()})
		if err != nil {
			t.Fatal(err)
		}
		id := namedNodeID(t, srv)
		for i := 0; i < updates; i++ {
			if !srv.ApplyInventoryUpdate(id, osm.Tags{osm.TagName: fmt.Sprintf("v%d", i)}) {
				t.Fatal("update refused")
			}
		}
		return srv
	}
	first := mkOrigin(3)
	oldLog := first.Store().LogID()
	var backend atomic.Value
	backend.Store(first.Handler())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		backend.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer ts.Close()

	puller, err := New(Config{Name: "city-B", Map: cityMap()})
	if err != nil {
		t.Fatal(err)
	}
	sy := NewSyncer(puller, ts.Client())
	sy.AddPeer(ts.URL)
	if _, err := sy.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if log, seq := puller.SyncPosition("city-A"); log != oldLog || seq != 3 {
		t.Fatalf("position = log %d seq %d, want log %d seq 3", log, seq, oldLog)
	}

	// Restart that OVERTAKES the cursor: 5 changes, head 5 > cursor 3.
	reborn := mkOrigin(5)
	newLog := reborn.Store().LogID()
	if newLog == oldLog {
		t.Fatal("incarnations collided")
	}
	backend.Store(reborn.Handler())
	if _, err := sy.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if log, seq := puller.SyncPosition("city-A"); log != newLog || seq != 5 {
		t.Fatalf("position after restart = log %d seq %d, want log %d seq 5", log, seq, newLog)
	}
	// An old-incarnation mark is refused on incarnation, not position.
	oldMark := &wire.ReadConsistency{Marks: []wire.SessionMark{{Origin: "city-A", Log: oldLog, Seq: 3}}}
	if puller.FreshAt(oldMark) {
		t.Fatal("vouched for a dead incarnation's mark")
	}
	newMark := &wire.ReadConsistency{Marks: []wire.SessionMark{{Origin: "city-A", Log: newLog, Seq: 5}}}
	if !puller.FreshAt(newMark) {
		t.Fatal("refused the new incarnation's consumed head")
	}
	// Multi-mark envelopes are all-or-nothing.
	both := &wire.ReadConsistency{Marks: append(append([]wire.SessionMark(nil), newMark.Marks...), oldMark.Marks...)}
	if puller.FreshAt(both) {
		t.Fatal("one unmet mark must fail the whole envelope")
	}
}
