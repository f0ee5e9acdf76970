package mapserver

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"openflame/internal/align"
	"openflame/internal/geo"
	"openflame/internal/osm"
	"openflame/internal/watch"
	"openflame/internal/wire"
	"openflame/internal/worldgen"
)

// watchServer is storeServer with room for watch-specific tweaks of the
// server's unexported state (watcher cap, ping cadence), applied before it
// serves anything.
func watchServer(t *testing.T, tweak func(*Server)) (*Server, *worldgen.IndoorBundle) {
	t.Helper()
	entrance := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	bundle := worldgen.GenStore(worldgen.DefaultStoreParams("Corner Grocery", entrance))
	ga, err := align.FitGeo(bundle.Correspondences)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Name: "corner-grocery", Map: bundle.Map, Alignment: ga})
	if err != nil {
		t.Fatal(err)
	}
	if tweak != nil {
		tweak(srv)
	}
	return srv, bundle
}

// productSubscribe builds a subscription request over one of the store's
// products: the top search hit's node is the one tests mutate to churn
// the standing query.
func productSubscribe(t *testing.T, srv *Server, bundle *worldgen.IndoorBundle) (wire.SubscribeRequest, osm.NodeID) {
	t.Helper()
	product := bundle.Products[0]
	hit := srv.Search(wire.SearchRequest{Query: product})
	if len(hit.Results) == 0 {
		t.Fatalf("product %q not found", product)
	}
	near := hit.Results[0].Position
	return wire.SubscribeRequest{Query: wire.SearchRequest{
		Query: product, Near: &near, MaxDistanceMeters: 500, Limit: 10,
	}}, hit.Results[0].NodeID
}

// watchFixture stands the grocery server up over real HTTP.
func watchFixture(t *testing.T) (*Server, *httptest.Server, wire.SubscribeRequest, osm.NodeID) {
	t.Helper()
	srv, bundle := watchServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	req, id := productSubscribe(t, srv, bundle)
	return srv, ts, req, id
}

// sseStream pumps one /v1/watch response's frames into a channel.
type sseStream struct {
	res    *http.Response
	events chan wire.Event
	err    error
	done   chan struct{}
}

func openWatch(t *testing.T, client *http.Client, url string, req wire.SubscribeRequest) (*sseStream, *http.Response) {
	t.Helper()
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url+"/v1/watch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	res, err := client.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		return nil, res
	}
	s := &sseStream{res: res, events: make(chan wire.Event, 64), done: make(chan struct{})}
	t.Cleanup(func() { res.Body.Close() })
	go func() {
		defer close(s.done)
		defer close(s.events)
		sc := bufio.NewScanner(res.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
		var data []byte
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				if len(data) > 0 {
					var ev wire.Event
					if err := json.Unmarshal(data, &ev); err != nil {
						s.err = err
						return
					}
					data = nil
					s.events <- ev
				}
				continue
			}
			if rest, ok := bytes.CutPrefix(line, []byte("data:")); ok {
				data = append(data, bytes.TrimPrefix(rest, []byte(" "))...)
			}
		}
		s.err = sc.Err()
	}()
	return s, res
}

// next returns the next non-ping event within the deadline.
func (s *sseStream) next(t *testing.T, timeout time.Duration) wire.Event {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-s.events:
			if !ok {
				t.Fatalf("watch stream ended (err: %v)", s.err)
			}
			if ev.Type == wire.EventPing {
				continue
			}
			return ev
		case <-deadline:
			t.Fatalf("no watch event within %v", timeout)
		}
	}
}

// TestWatchInitThenDelta: the endpoint streams an init snapshot, then a
// delta when a write churns the watched query — each event carrying the
// post-apply session mark and a resumable cursor.
func TestWatchInitThenDelta(t *testing.T) {
	srv, ts, req, nodeID := watchFixture(t)
	s, _ := openWatch(t, ts.Client(), ts.URL, req)

	init := s.next(t, 5*time.Second)
	if init.Type != wire.EventInit || len(init.Results) == 0 {
		t.Fatalf("first event = %+v, want non-empty init", init)
	}
	if init.Session == nil || init.Session.Origin != srv.Name() {
		t.Fatalf("init session mark = %+v", init.Session)
	}
	if init.Log != srv.Store().LogID() {
		t.Fatalf("init log = %d, want store incarnation %d", init.Log, srv.Store().LogID())
	}

	// Renaming the hit away from the query removes it from the standing
	// result set.
	if !srv.ApplyInventoryUpdate(nodeID, osm.Tags{"name": "Decommissioned Shelf"}) {
		t.Fatalf("update refused")
	}
	delta := s.next(t, 5*time.Second)
	if delta.Type != wire.EventDelta {
		t.Fatalf("second event = %+v, want delta", delta)
	}
	found := false
	for _, id := range delta.Removed {
		if id == int64(nodeID) {
			found = true
		}
	}
	if !found {
		t.Fatalf("delta.Removed = %v, want node %d", delta.Removed, nodeID)
	}
	if delta.Session == nil || delta.Session.Seq == 0 {
		t.Fatalf("delta session mark = %+v, want post-apply mark", delta.Session)
	}
	if delta.Seq != srv.ChangeSeq() {
		t.Fatalf("delta cursor seq = %d, want head %d", delta.Seq, srv.ChangeSeq())
	}
}

// TestWatchResumeSyncAtServer: a reconnect whose cursor the log still
// covers is acknowledged with a bare sync — no re-snapshot on the wire.
func TestWatchResumeSyncAtServer(t *testing.T) {
	_, ts, req, _ := watchFixture(t)
	s, _ := openWatch(t, ts.Client(), ts.URL, req)
	init := s.next(t, 5*time.Second)
	s.res.Body.Close()

	resume := req
	resume.Log, resume.Seq = init.Log, init.Seq
	s2, _ := openWatch(t, ts.Client(), ts.URL, resume)
	if ev := s2.next(t, 5*time.Second); ev.Type != wire.EventSync {
		t.Fatalf("resume = %+v, want sync", ev)
	}
}

// TestWatchResumeInitAfterCompactionGap pins the server half of the
// compaction-gap discipline: a cursor the log no longer retains yields a
// fresh init with a new cursor — never a sync that would skip the lost
// span.
func TestWatchResumeInitAfterCompactionGap(t *testing.T) {
	srv, ts, req, nodeID := watchFixture(t)
	s, _ := openWatch(t, ts.Client(), ts.URL, req)
	init := s.next(t, 5*time.Second)
	s.res.Body.Close()

	// Push the change log past its compaction threshold (2x cap) so the
	// init cursor falls off the retained window. No watcher is connected,
	// so no drain churns while this loops.
	st := srv.Store()
	for i := 0; st.View().FirstChangeSeq() <= init.Seq+1; i++ {
		if !srv.ApplyInventoryUpdate(nodeID, osm.Tags{"name": fmt.Sprintf("churn %d", i)}) {
			t.Fatalf("churn update %d refused", i)
		}
	}

	resume := req
	resume.Log, resume.Seq = init.Log, init.Seq
	s2, _ := openWatch(t, ts.Client(), ts.URL, resume)
	ev := s2.next(t, 5*time.Second)
	if ev.Type != wire.EventInit {
		t.Fatalf("resume across compaction gap = %+v, want init", ev)
	}
	if ev.Seq <= init.Seq {
		t.Fatalf("re-init cursor %d did not advance past %d", ev.Seq, init.Seq)
	}
}

// TestWatchShedsAtWatcherLimit: the subscription bound is enforced with
// the 429/Retry-After discipline — separately from request admission.
func TestWatchShedsAtWatcherLimit(t *testing.T) {
	srv2, bundle := watchServer(t, func(s *Server) {
		s.hub = watch.New(watch.Config{
			Source: storeSource{st: s.store}, Eval: s.watchEval, Mark: s.markAt, MaxWatchers: 1,
		})
	})
	ts := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts.Close)
	req, _ := productSubscribe(t, srv2, bundle)
	s1, _ := openWatch(t, ts.Client(), ts.URL, req)
	s1.next(t, 5*time.Second) // stream established

	_, res := openWatch(t, ts.Client(), ts.URL, req)
	if res.StatusCode != wire.StatusOverloaded {
		t.Fatalf("second subscription status = %d, want %d", res.StatusCode, wire.StatusOverloaded)
	}
	if res.Header.Get(wire.RetryAfterHeader) == "" {
		t.Fatalf("shed carries no Retry-After")
	}
	var e wire.ErrorResponse
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil || e.RetryAfterSeconds <= 0 {
		t.Fatalf("shed body = %+v (err %v)", e, err)
	}
	res.Body.Close()
	if st := srv2.WatchStats(); st.Watchers != 1 {
		t.Fatalf("watcher count after shed = %d", st.Watchers)
	}
}

// TestWatchSurvivesServerWriteTimeout is the PR 7 interaction regression:
// a server-level WriteTimeout sized for request/response traffic must not
// sever a healthy SSE stream — the handler resets its per-event write
// deadline via http.ResponseController. The stream here outlives several
// WriteTimeout windows on keepalive pings alone, then still delivers a
// delta.
func TestWatchSurvivesServerWriteTimeout(t *testing.T) {
	srvShort, bundle := watchServer(t, func(s *Server) { s.watchPing = 25 * time.Millisecond })
	ts := httptest.NewUnstartedServer(srvShort.Handler())
	ts.Config.WriteTimeout = 150 * time.Millisecond
	ts.Start()
	t.Cleanup(ts.Close)

	req, nodeID := productSubscribe(t, srvShort, bundle)
	s, _ := openWatch(t, ts.Client(), ts.URL, req)
	if ev := s.next(t, 5*time.Second); ev.Type != wire.EventInit {
		t.Fatalf("first event = %+v", ev)
	}
	// Hold the stream across ~4 WriteTimeout windows; pings keep flowing
	// only if the handler's deadline resets are working.
	time.Sleep(600 * time.Millisecond)
	if !srvShort.ApplyInventoryUpdate(nodeID, osm.Tags{"name": "Renamed Shelf"}) {
		t.Fatalf("update refused")
	}
	if ev := s.next(t, 5*time.Second); ev.Type != wire.EventDelta {
		t.Fatalf("post-timeout event = %+v, want delta (stream severed?)", ev)
	}
}

// TestWatchPolicyFallsUnderSearch: access control maps the watch service
// onto the search rule — a user denied search cannot subscribe either.
func TestWatchPolicyFallsUnderSearch(t *testing.T) {
	policy := &Policy{
		Default: Rule{},
		PerService: map[wire.Service]Rule{
			wire.SvcSearch: {UserDomains: []string{"cmu.edu"}},
		},
	}
	srv, _ := storeServer(t, policy)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	near := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	body, _ := json.Marshal(&wire.SubscribeRequest{Query: wire.SearchRequest{
		Query: "shelf", Near: &near, MaxDistanceMeters: 500,
	}})
	post := func(user string) int {
		hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/watch", bytes.NewReader(body))
		hr.Header.Set("Content-Type", "application/json")
		if user != "" {
			hr.Header.Set("X-Flame-User", user)
		}
		res, err := ts.Client().Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		return res.StatusCode
	}
	if got := post("someone@else.org"); got != http.StatusForbidden {
		t.Fatalf("denied user status = %d, want 403", got)
	}
	if got := post("student@cmu.edu"); got != http.StatusOK {
		t.Fatalf("allowed user status = %d, want 200", got)
	}
}

// TestWatchStaleReplicaRefusal: a subscription carrying marks the server
// has not caught up to is refused with 412 + the server's current mark,
// exactly like a sessioned read.
func TestWatchStaleReplicaRefusal(t *testing.T) {
	srv, ts, req, _ := watchFixture(t)
	ahead := wire.SessionMark{
		Origin: srv.Name(), Log: srv.Store().LogID(), Seq: srv.ChangeSeq() + 100,
	}
	req.Query.SetConsistency(&wire.ReadConsistency{Marks: []wire.SessionMark{ahead}})
	_, res := openWatch(t, ts.Client(), ts.URL, req)
	if res.StatusCode != wire.StatusStaleReplica {
		t.Fatalf("status = %d, want %d", res.StatusCode, wire.StatusStaleReplica)
	}
	var e wire.ErrorResponse
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil || e.Session == nil {
		t.Fatalf("refusal body = %+v (err %v), want current mark", e, err)
	}
	res.Body.Close()
}
