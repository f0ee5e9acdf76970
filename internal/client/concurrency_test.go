package client_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"openflame/internal/core"
	"openflame/internal/geo"
	"openflame/internal/resilience"
	"openflame/internal/s2cell"
	"openflame/internal/search"
	"openflame/internal/wire"
	"openflame/internal/worldgen"
)

// delayedServer is a map-server test double: a live HTTP endpoint whose
// /search sleeps an injectable delay (honoring the request context, like
// the real server) before answering with one result named after itself.
type delayedServer struct {
	name     string
	delay    time.Duration
	pos      geo.LatLng
	requests atomic.Int64
	// inflight counts handlers currently sleeping — used to observe that
	// cancellation actually reached the server side.
	inflight atomic.Int64
}

func (d *delayedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.requests.Add(1)
	d.inflight.Add(1)
	defer d.inflight.Add(-1)
	// Drain the body (as the real server's readJSON does) so the HTTP
	// server watches the connection and cancels r.Context() on client
	// disconnect.
	_, _ = io.Copy(io.Discard, r.Body)
	if d.delay > 0 {
		t := time.NewTimer(d.delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-r.Context().Done():
			return // client gone; abandon the response
		}
	}
	switch r.URL.Path {
	case "/search":
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(wire.SearchResponse{Results: []search.Result{
			{Name: "hit from " + d.name, Position: d.pos, TextScore: 1, Score: 1, Source: d.name},
		}})
	case "/info":
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(wire.Info{Name: d.name})
	default:
		http.NotFound(w, r)
	}
}

// delayedFederation stands up a DNS discovery tree with n delayed map-server
// doubles all announced on the cell covering pos.
func delayedFederation(t testing.TB, n int, delay time.Duration) (*core.Federation, geo.LatLng, []*delayedServer) {
	t.Helper()
	fed, err := core.NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	pos := geo.LatLng{Lat: 40.4433, Lng: -79.9436}
	token := s2cell.FromLatLng(pos).Parent(16).Token()
	doubles := make([]*delayedServer, n)
	for i := 0; i < n; i++ {
		d := &delayedServer{name: fmt.Sprintf("srv-%02d", i), delay: delay, pos: pos}
		ts := httptest.NewServer(d)
		t.Cleanup(ts.Close)
		doubles[i] = d
		if err := fed.Registry.Register(wire.Info{
			Name: d.name, Coverage: []string{token}, Services: []wire.Service{wire.SvcSearch},
		}, ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	return fed, pos, doubles
}

// TestFanoutWallClockIsSlowestServerNotSum is the acceptance criterion: 8
// servers each delayed 50ms must complete in under 2x one server's latency
// (the sequential client needed ~8x).
func TestFanoutWallClockIsSlowestServerNotSum(t *testing.T) {
	const n, delay = 8, 50 * time.Millisecond
	fed, pos, _ := delayedFederation(t, n, delay)
	c := fed.NewClient()
	// Keep the discovery covering small so the measurement isolates the
	// HTTP fan-out (the covering sweep is exercised by discovery's tests).
	c.SearchRadiusMeters = 100

	start := time.Now()
	results := c.SearchV2(context.Background(), "hit", pos, 2*n)
	elapsed := time.Since(start)

	sources := map[string]bool{}
	for _, r := range results {
		sources[r.Source] = true
	}
	if len(sources) != n {
		t.Fatalf("got results from %d of %d servers: %v", len(sources), n, sources)
	}
	if elapsed >= 2*delay {
		t.Fatalf("fan-out took %v; want < %v (2x single-server latency)", elapsed, 2*delay)
	}
}

// TestMaxConcurrencyOneIsSequential proves the knob reproduces the old
// sequential behaviour: wall time is the sum of the per-server delays and
// the merged results are identical to the concurrent run's.
func TestMaxConcurrencyOneIsSequential(t *testing.T) {
	const n, delay = 4, 40 * time.Millisecond
	fed, pos, _ := delayedFederation(t, n, delay)

	seq := fed.NewClient()
	seq.MaxConcurrency = 1
	start := time.Now()
	seqResults := seq.SearchV2(context.Background(), "hit", pos, 2*n)
	elapsed := time.Since(start)
	if elapsed < n*delay {
		t.Fatalf("MaxConcurrency=1 took %v; want >= %v (sequential sum)", elapsed, n*delay)
	}

	conc := fed.NewClient()
	concResults := conc.SearchV2(context.Background(), "hit", pos, 2*n)
	if len(seqResults) != len(concResults) {
		t.Fatalf("sequential found %d results, concurrent %d", len(seqResults), len(concResults))
	}
	for i := range seqResults {
		if !reflect.DeepEqual(seqResults[i], concResults[i]) {
			t.Fatalf("result %d differs: sequential %+v vs concurrent %+v",
				i, seqResults[i], concResults[i])
		}
	}
}

// TestNeutralResilienceIsByteIdentical is the determinism regression for
// the resilience layer: with MaxConcurrency=1, retries disabled, hedging
// disabled, and breakers disabled, a client running through the resilience
// layer (health tracking only) must produce byte-identical Search and
// Route results to the plain pre-resilience client.
func TestNeutralResilienceIsByteIdentical(t *testing.T) {
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	f, err := core.DeployWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	store := w.Stores[0]
	entrance := trueEntrance(store)

	base := f.NewClient()
	base.MaxConcurrency = 1
	withRes := f.NewClient()
	withRes.MaxConcurrency = 1
	// The zero policy: health is tracked, but no retries, no hedging, no
	// breakers — every call is a single plain attempt.
	withRes.Resilience = resilience.NewTracker(resilience.Policy{})

	marshal := func(v interface{}) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	a := marshal(base.SearchV2(context.Background(), store.Products[0], entrance, 10))
	b := marshal(withRes.SearchV2(context.Background(), store.Products[0], entrance, 10))
	if string(a) != string(b) {
		t.Fatalf("Search diverged under neutral resilience:\nplain: %s\nres:   %s", a, b)
	}

	from := geo.LatLng{Lat: 40.4400, Lng: -79.9990}
	to := geo.Offset(geo.Offset(from, 300, 0), 300, 90)
	ra, err := base.RouteV2(context.Background(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := withRes.RouteV2(context.Background(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	if string(marshal(ra)) != string(marshal(rb)) {
		t.Fatalf("Route diverged under neutral resilience:\nplain: %s\nres:   %s", marshal(ra), marshal(rb))
	}

	// The neutral tracker issued exactly as many HTTP requests as the
	// plain client — nothing was retried or hedged.
	if base.RequestCount() != withRes.RequestCount() {
		t.Fatalf("request counts diverged: plain %d vs resilience %d",
			base.RequestCount(), withRes.RequestCount())
	}
}

// TestCancellationAbortsInFlight cancels a search while every server is
// still sleeping: the call must return promptly, the server-side handlers
// must observe the disconnect, and no goroutines may leak.
func TestCancellationAbortsInFlight(t *testing.T) {
	const n = 4
	fed, pos, doubles := delayedFederation(t, n, 10*time.Second)
	c := fed.NewClient()
	// Prime discovery so the cancelled call is measuring the HTTP fan-out.
	if anns := c.DiscoverV2(context.Background(), pos); len(anns) != n {
		t.Fatalf("discovered %d servers, want %d", len(anns), n)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Wait until the fan-out is actually in flight, then cancel.
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			var inflight int64
			for _, d := range doubles {
				inflight += d.inflight.Load()
			}
			if inflight >= n {
				break
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()

	start := time.Now()
	results := c.SearchV2(ctx, "hit", pos, 10)
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled search took %v; want prompt return", elapsed)
	}
	if len(results) != 0 {
		t.Fatalf("cancelled search returned results: %v", results)
	}

	// Server-side handlers and client-side workers must all unwind.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		var inflight int64
		for _, d := range doubles {
			inflight += d.inflight.Load()
		}
		if inflight == 0 && runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	var inflight int64
	for _, d := range doubles {
		inflight += d.inflight.Load()
	}
	t.Fatalf("after cancel: %d handlers still in flight, %d goroutines (baseline %d)",
		inflight, runtime.NumGoroutine(), before)
}

// TestPerServerTimeoutSkipsSlowServer: a hung federation member is skipped
// after PerServerTimeout while the healthy members' results still merge.
func TestPerServerTimeoutSkipsSlowServer(t *testing.T) {
	const n = 4
	fed, pos, doubles := delayedFederation(t, n, 0)
	doubles[0].delay = 5 * time.Second // one hung member

	c := fed.NewClient()
	c.PerServerTimeout = 100 * time.Millisecond
	start := time.Now()
	results := c.SearchV2(context.Background(), "hit", pos, 2*n)
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("search with hung member took %v", elapsed)
	}
	sources := map[string]bool{}
	for _, r := range results {
		sources[r.Source] = true
	}
	if sources[doubles[0].name] {
		t.Fatal("hung server contributed a result")
	}
	if len(sources) != n-1 {
		t.Fatalf("healthy servers answered %d of %d: %v", len(sources), n-1, sources)
	}
}

// TestCancelledDiscoveryAbortsLookups cancels before discovery: no HTTP
// requests may be issued at all.
func TestCancelledDiscoveryAbortsLookups(t *testing.T) {
	fed, pos, doubles := delayedFederation(t, 3, 0)
	c := fed.NewClient()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := c.SearchV2(ctx, "hit", pos, 10); len(got) != 0 {
		t.Fatalf("cancelled search returned %v", got)
	}
	for _, d := range doubles {
		if d.requests.Load() != 0 {
			t.Fatalf("server %s saw %d requests after pre-cancelled search", d.name, d.requests.Load())
		}
	}
}
