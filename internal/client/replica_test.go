package client_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openflame/internal/core"
	"openflame/internal/geo"
	"openflame/internal/resilience"
	"openflame/internal/s2cell"
	"openflame/internal/search"
	"openflame/internal/wire"
)

// callLog records the order servers were contacted in, across a whole
// federation of doubles.
type callLog struct {
	mu    sync.Mutex
	calls []string
}

func (l *callLog) add(name string) {
	l.mu.Lock()
	l.calls = append(l.calls, name)
	l.mu.Unlock()
}

func (l *callLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.calls...)
}

// replicaDouble is a map-server double for replica-plan tests: it can be
// told to fail, to be slow, and it logs every contact.
type replicaDouble struct {
	name     string
	pos      geo.LatLng
	fail     atomic.Bool
	delay    time.Duration
	requests atomic.Int64
	log      *callLog
}

func (d *replicaDouble) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.requests.Add(1)
	if d.log != nil {
		d.log.add(d.name)
	}
	_, _ = io.Copy(io.Discard, r.Body)
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.fail.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(wire.ErrorResponse{Error: "double: injected failure"})
		return
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

// replicaSpec names one double and the replica set it registers under
// ("" = solo member).
type replicaSpec struct {
	name string
	set  string
}

// replicaFederation registers the specified doubles on one shared cell, so
// a single discovery finds them all.
func replicaFederation(t testing.TB, specs []replicaSpec) (*core.Federation, geo.LatLng, map[string]*replicaDouble, *callLog) {
	t.Helper()
	fed, err := core.NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	pos := geo.LatLng{Lat: 40.4433, Lng: -79.9436}
	token := s2cell.FromLatLng(pos).Parent(16).Token()
	log := &callLog{}
	doubles := make(map[string]*replicaDouble, len(specs))
	for _, spec := range specs {
		d := &replicaDouble{name: spec.name, pos: pos, log: log}
		ts := httptest.NewServer(d)
		t.Cleanup(ts.Close)
		doubles[spec.name] = d
		if err := fed.Registry.RegisterReplica(wire.Info{
			Name: spec.name, Coverage: []string{token}, Services: []wire.Service{wire.SvcSearch},
		}, ts.URL, spec.set); err != nil {
			t.Fatal(err)
		}
	}
	return fed, pos, doubles, log
}

func totalRequests(doubles map[string]*replicaDouble) int64 {
	var n int64
	for _, d := range doubles {
		n += d.requests.Load()
	}
	return n
}

// TestReplicaSetCostsOneRequest is the steady-state acceptance criterion:
// N healthy replicas of one region cost exactly ONE request per client
// query — not N requests whose answers dedup to one.
func TestReplicaSetCostsOneRequest(t *testing.T) {
	const n = 8
	specs := make([]replicaSpec, n)
	for i := range specs {
		specs[i] = replicaSpec{name: fmt.Sprintf("hot-%02d", i), set: "hot-region"}
	}
	fed, pos, doubles, _ := replicaFederation(t, specs)
	c := fed.NewClient()
	c.SearchRadiusMeters = 100

	results := c.SearchV2(context.Background(), "hit", pos, 10)
	if len(results) != 1 {
		t.Fatalf("results = %+v, want exactly one (one group)", results)
	}
	if got := totalRequests(doubles); got != 1 {
		t.Fatalf("federation saw %d requests, want 1", got)
	}
	if got := c.RequestCount(); got != 1 {
		t.Fatalf("client issued %d requests, want 1", got)
	}
	// Ten more queries: still one request each, all to the same replica
	// (deterministic selection with no health data to differentiate).
	for i := 0; i < 10; i++ {
		c.SearchV2(context.Background(), "hit", pos, 10)
	}
	if got := totalRequests(doubles); got != 11 {
		t.Fatalf("federation saw %d requests after 11 queries, want 11", got)
	}
}

// TestReplicaFailoverOnError: a fault on the chosen replica fails the
// request over to a sibling — the query still succeeds and the region is
// not lost.
func TestReplicaFailoverOnError(t *testing.T) {
	specs := []replicaSpec{
		{name: "hot-00", set: "hot-region"},
		{name: "hot-01", set: "hot-region"},
		{name: "hot-02", set: "hot-region"},
	}
	fed, pos, doubles, log := replicaFederation(t, specs)
	doubles["hot-00"].fail.Store(true) // the plan's first pick

	c := fed.NewClient()
	c.SearchRadiusMeters = 100
	results := c.SearchV2(context.Background(), "hit", pos, 10)
	if len(results) != 1 || results[0].Source != "hot-01" {
		t.Fatalf("failover results = %+v, want one hit from hot-01", results)
	}
	if got := log.snapshot(); !reflect.DeepEqual(got, []string{"hot-00", "hot-01"}) {
		t.Fatalf("contact order = %v, want [hot-00 hot-01]", got)
	}
	// Both siblings down: the third still answers.
	doubles["hot-01"].fail.Store(true)
	results = c.SearchV2(context.Background(), "hit", pos, 10)
	if len(results) != 1 || results[0].Source != "hot-02" {
		t.Fatalf("double failover results = %+v, want hit from hot-02", results)
	}
	// Whole set down: the query degrades to empty, not to an error loop.
	doubles["hot-02"].fail.Store(true)
	if results := c.SearchV2(context.Background(), "hit", pos, 10); len(results) != 0 {
		t.Fatalf("all-down search returned %+v", results)
	}
}

// TestReplicaPlanDeterminism pins the MaxConcurrency=1 plan order: groups
// in discovery order (replica sets keyed by first appearance, solo servers
// as singletons), first member of each group contacted, byte-identical to
// the concurrent client's merged output.
func TestReplicaPlanDeterminism(t *testing.T) {
	specs := []replicaSpec{
		{name: "a-1", set: "set-a"},
		{name: "a-2", set: "set-a"},
		{name: "b-1", set: "set-b"},
		{name: "b-2", set: "set-b"},
		{name: "z-solo", set: ""},
	}
	fed, pos, _, log := replicaFederation(t, specs)
	seq := fed.NewClient()
	seq.MaxConcurrency = 1
	seq.SearchRadiusMeters = 100

	seqResults := seq.SearchV2(context.Background(), "hit", pos, 10)
	want := []string{"a-1", "b-1", "z-solo"}
	if got := log.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("sequential plan contacted %v, want %v", got, want)
	}
	if len(seqResults) != 3 {
		t.Fatalf("sequential results = %+v", seqResults)
	}

	conc := fed.NewClient()
	conc.SearchRadiusMeters = 100
	concResults := conc.SearchV2(context.Background(), "hit", pos, 10)
	if !reflect.DeepEqual(seqResults, concResults) {
		t.Fatalf("concurrent merge diverged:\nseq:  %+v\nconc: %+v", seqResults, concResults)
	}
}

// TestReplicaSelectionUsesHealth: with a resilience tracker active, an
// unsampled sibling is probed before a known-slow one, and once both have
// latency samples the lower-EWMA replica keeps the traffic.
func TestReplicaSelectionUsesHealth(t *testing.T) {
	specs := []replicaSpec{
		{name: "a-slow", set: "hot-region"},
		{name: "b-fast", set: "hot-region"},
	}
	fed, pos, doubles, log := replicaFederation(t, specs)
	doubles["a-slow"].delay = 60 * time.Millisecond

	c := fed.NewClient()
	c.SearchRadiusMeters = 100
	c.Resilience = resilience.NewTracker(resilience.Policy{})

	// Cold: no samples anywhere, discovery order wins → "a-slow" (sorts
	// first) is contacted and records its 60ms EWMA.
	c.SearchV2(context.Background(), "hit", pos, 10)
	// Second query: "b-fast" has no samples (EWMA 0 sorts below 60ms) → probed.
	c.SearchV2(context.Background(), "hit", pos, 10)
	// Third query: both sampled; fast's EWMA is far lower → keeps traffic.
	c.SearchV2(context.Background(), "hit", pos, 10)
	want := []string{"a-slow", "b-fast", "b-fast"}
	if got := log.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("health-aware selection contacted %v, want %v", got, want)
	}
}

// TestReplicaBreakerExcludesMember: a replica whose circuit breaker is open
// is excluded from selection without HTTP; siblings carry the set.
func TestReplicaBreakerExcludesMember(t *testing.T) {
	specs := []replicaSpec{
		{name: "hot-00", set: "hot-region"},
		{name: "hot-01", set: "hot-region"},
	}
	fed, pos, doubles, _ := replicaFederation(t, specs)
	doubles["hot-00"].fail.Store(true)

	c := fed.NewClient()
	c.SearchRadiusMeters = 100
	c.Resilience = resilience.NewTracker(resilience.Policy{BreakerThreshold: 1, BreakerCooldown: time.Hour})

	// First query: hot-00 fails (breaker opens), sibling answers.
	if results := c.SearchV2(context.Background(), "hit", pos, 10); len(results) != 1 || results[0].Source != "hot-01" {
		t.Fatalf("first search = %+v", results)
	}
	failedAfterFirst := doubles["hot-00"].requests.Load()
	// Subsequent queries: the open breaker keeps hot-00 out of the plan
	// entirely — no further HTTP reaches it.
	for i := 0; i < 5; i++ {
		if results := c.SearchV2(context.Background(), "hit", pos, 10); len(results) != 1 || results[0].Source != "hot-01" {
			t.Fatalf("search %d = %+v", i, results)
		}
	}
	if got := doubles["hot-00"].requests.Load(); got != failedAfterFirst {
		t.Fatalf("open-breaker member contacted again: %d -> %d requests", failedAfterFirst, got)
	}
}
