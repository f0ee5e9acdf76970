package core

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"openflame/internal/client"
	"openflame/internal/discovery"
	"openflame/internal/geo"
	"openflame/internal/mapserver"
	"openflame/internal/netsim"
	"openflame/internal/osm"
	"openflame/internal/wire"
	"openflame/internal/worldgen"
)

// cloneMap deep-copies a map through the snapshot codec — how replica
// tests stand up N servers over identical content without sharing state.
func cloneMap(t testing.TB, m *osm.Map) *osm.Map {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteSnapshotVersionsIndexed(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	c, _, _, err := osm.ReadSnapshotIndexed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// cityReplicas stands up n map servers over clones of the world's outdoor
// map, all members of replica set "city".
func cityReplicas(t testing.TB, f *Federation, w *worldgen.World, n int) []*ServerHandle {
	t.Helper()
	handles := make([]*ServerHandle, n)
	for i := 0; i < n; i++ {
		srv, err := mapserver.New(mapserver.Config{
			Name:              fmt.Sprintf("city-%d", i),
			Map:               cloneMap(t, w.Outdoor),
			QueryCacheEntries: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		h, err := f.AddReplica(srv, "city")
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	return handles
}

// firstNamedNode returns the lowest-ID node carrying a name tag.
func firstNamedNode(m *osm.Map) *osm.Node {
	var found *osm.Node
	m.Nodes(func(n *osm.Node) bool {
		if n.Tags.Get(osm.TagName) != "" {
			found = n
			return false
		}
		return true
	})
	return found
}

// TestReplicaConvergence is the write-convergence acceptance criterion: an
// inventory update applied to ONE replica is visible from every sibling
// after an anti-entropy round, with query caches invalidated, and the
// replicas report identical change-log positions.
func TestReplicaConvergence(t *testing.T) {
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	f, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	handles := cityReplicas(t, f, w, 3)

	node := firstNamedNode(handles[0].Server.Store().Map())
	if node == nil {
		t.Fatal("no named node in the outdoor map")
	}
	req := wire.SearchRequest{Query: "xyzreplicated", Limit: 5}
	// Warm every sibling's query cache on the OLD content.
	for _, h := range handles {
		if got := h.Server.Search(req); len(got.Results) != 0 {
			t.Fatalf("pre-update search already finds the new name: %+v", got)
		}
	}

	// The update lands on exactly one member.
	tags := node.Tags.Clone()
	tags[osm.TagName] = "Xyzreplicated Cafe"
	if !handles[0].Server.ApplyInventoryUpdate(node.ID, tags) {
		t.Fatal("inventory update refused")
	}
	if got := handles[0].Server.ChangeSeq(); got != 1 {
		t.Fatalf("origin ChangeSeq = %d, want 1", got)
	}

	applied, err := f.SyncReplicas(context.Background())
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	if applied != 2 {
		t.Fatalf("sync applied %d changes, want 2 (one per sibling)", applied)
	}
	for i, h := range handles {
		if got := h.Server.ChangeSeq(); got != 1 {
			t.Fatalf("replica %d ChangeSeq = %d, want 1", i, got)
		}
		got := h.Server.Search(req)
		if len(got.Results) == 0 || !strings.Contains(got.Results[0].Name, "Xyzreplicated Cafe") {
			t.Fatalf("replica %d does not serve the update after sync: %+v", i, got)
		}
	}

	// A second round is a no-op: the idempotent application already
	// converged the set — no ping-pong, positions stay identical.
	applied, err = f.SyncReplicas(context.Background())
	if err != nil {
		t.Fatalf("second sync: %v", err)
	}
	if applied != 0 {
		t.Fatalf("second sync applied %d changes, want 0", applied)
	}
	for i, h := range handles {
		if got := h.Server.ChangeSeq(); got != 1 {
			t.Fatalf("replica %d ChangeSeq after second round = %d, want 1", i, got)
		}
	}
}

// TestReplicaConvergenceFromEverySibling: updates landing on DIFFERENT
// replicas all converge — sequence positions equalize even though each
// member logs in arrival order.
func TestReplicaConvergenceFromEverySibling(t *testing.T) {
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	f, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	handles := cityReplicas(t, f, w, 3)

	m := handles[0].Server.Store().Map()
	var nodes []*osm.Node
	m.Nodes(func(n *osm.Node) bool {
		if n.Tags.Get(osm.TagName) != "" {
			nodes = append(nodes, n)
		}
		return len(nodes) < 3
	})
	if len(nodes) < 3 {
		t.Fatal("not enough named nodes")
	}
	for i, h := range handles {
		tags := nodes[i].Tags.Clone()
		tags["note"] = fmt.Sprintf("updated-on-%d", i)
		if !h.Server.ApplyInventoryUpdate(nodes[i].ID, tags) {
			t.Fatalf("update %d refused", i)
		}
	}
	if _, err := f.SyncReplicas(context.Background()); err != nil {
		t.Fatalf("sync: %v", err)
	}
	// All three updates everywhere; positions identical (3 logged each).
	for i, h := range handles {
		if got := h.Server.ChangeSeq(); got != 3 {
			t.Fatalf("replica %d ChangeSeq = %d, want 3", i, got)
		}
		for j := range handles {
			n := h.Server.Store().Map().Node(nodes[j].ID)
			if n == nil || n.Tags.Get("note") != fmt.Sprintf("updated-on-%d", j) {
				t.Fatalf("replica %d missing update %d: %+v", i, j, n)
			}
		}
	}
	if applied, _ := f.SyncReplicas(context.Background()); applied != 0 {
		t.Fatalf("extra round applied %d changes, want 0", applied)
	}
}

// TestReplicaFailoverThroughNetsim is the fault-injection acceptance
// criterion: with a netsim fault on the plan's chosen replica, a client
// request fails over to a sibling and still succeeds.
func TestReplicaFailoverThroughNetsim(t *testing.T) {
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	f, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	mk := func(name string) *mapserver.Server {
		srv, err := mapserver.New(mapserver.Config{Name: name, Map: cloneMap(t, w.Outdoor)})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	sched := netsim.AlwaysFail(503)
	// "city-0" sorts first in discovery → it is the cold plan's choice.
	faulty, err := f.AddFaultyReplica(mk("city-0"), "city", sched)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := f.AddReplica(mk("city-1"), "city")
	if err != nil {
		t.Fatal(err)
	}

	c := f.NewClient()
	pos := geo.LatLng{Lat: 40.4400, Lng: -79.9990}
	results := c.SearchV2(context.Background(), "Street", pos, 5)
	if len(results) == 0 {
		t.Fatal("search did not fail over to the healthy sibling")
	}
	if results[0].Source != "city-1" {
		t.Fatalf("results came from %q, want the sibling city-1", results[0].Source)
	}
	if sched.Faulted() == 0 {
		t.Fatal("netsim fault never fired — the test exercised nothing")
	}
	_ = faulty
	_ = healthy
}

// countingTransport counts HTTP requests per destination host.
type countingTransport struct {
	mu     sync.Mutex
	counts map[string]int
}

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ct.mu.Lock()
	if ct.counts == nil {
		ct.counts = map[string]int{}
	}
	ct.counts[r.URL.Host]++
	ct.mu.Unlock()
	return http.DefaultTransport.RoundTrip(r)
}

func (ct *countingTransport) count(host string) int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.counts[host]
}

// TestRemoveServerUnderLiveTraffic is the churn acceptance criterion:
// removing a member while a client keeps querying produces, after one
// announcement TTL, no further requests to the departed member — and every
// query keeps succeeding against the survivor.
func TestRemoveServerUnderLiveTraffic(t *testing.T) {
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	f, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Registry.TTLSeconds = 0 // DNS records roll over immediately

	mk := func(name string) *mapserver.Server {
		srv, err := mapserver.New(mapserver.Config{Name: name, Map: cloneMap(t, w.Outdoor)})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	if _, err := f.AddServer(mk("city-stay")); err != nil {
		t.Fatal(err)
	}
	leave, err := f.AddServer(mk("city-leave"))
	if err != nil {
		t.Fatal(err)
	}
	leaveHost := strings.TrimPrefix(leave.URL, "http://")

	// A client with a short announcement TTL and a counting transport.
	const annTTL = 50 * time.Millisecond
	disc := discovery.NewClient(f.NewResolver(), discovery.DefaultSuffix)
	disc.AnnouncementTTL = annTTL
	ct := &countingTransport{}
	c := client.New(disc, &http.Client{Transport: ct})

	pos := geo.LatLng{Lat: 40.4400, Lng: -79.9990}
	if got := c.SearchV2(context.Background(), "Street", pos, 5); len(got) == 0 {
		t.Fatal("warmup search found nothing")
	}
	if ct.count(leaveHost) == 0 {
		t.Fatal("warmup did not touch the member about to leave")
	}

	// Live traffic while the member departs.
	stop := make(chan struct{})
	var trafficWG sync.WaitGroup
	trafficWG.Add(1)
	var emptyResults int
	go func() {
		defer trafficWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := c.SearchV2(context.Background(), "Street", pos, 5); len(got) == 0 {
				emptyResults++
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	if err := f.RemoveServer("city-leave"); err != nil {
		t.Fatal(err)
	}
	// Wait out the announcement TTL (plus margin) under live traffic, then
	// measure: the departed member must see no further requests.
	time.Sleep(4 * annTTL)
	baseline := ct.count(leaveHost)
	time.Sleep(4 * annTTL)
	close(stop)
	trafficWG.Wait()
	if got := ct.count(leaveHost); got != baseline {
		t.Fatalf("departed member contacted %d more times after the TTL", got-baseline)
	}
	if emptyResults != 0 {
		t.Fatalf("%d searches lost all results during churn", emptyResults)
	}
	// Discovery no longer lists the member at all.
	for _, a := range c.DiscoverV2(context.Background(), pos) {
		if a.Name == "city-leave" {
			t.Fatalf("departed member still discovered: %+v", a)
		}
	}
}

// TestDrainKeepsServingWhileWithdrawn: a drained member leaves discovery
// but keeps answering requests already holding its URL; RemoveServer then
// retires it for good.
func TestDrainKeepsServingWhileWithdrawn(t *testing.T) {
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	f, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Registry.TTLSeconds = 0

	srv, err := mapserver.New(mapserver.Config{Name: "city", Map: cloneMap(t, w.Outdoor)})
	if err != nil {
		t.Fatal(err)
	}
	h, err := f.AddServer(srv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Drain("city"); err != nil {
		t.Fatal(err)
	}
	if !h.Draining {
		t.Fatal("handle not marked draining")
	}
	// Still serving: a direct request (a client that discovered it before
	// the drain) succeeds.
	res, err := http.Get(h.URL + "/healthz")
	if err != nil {
		t.Fatalf("drained member refused a request: %v", err)
	}
	res.Body.Close()
	// But it is gone from the registry (and, within a TTL, from clients).
	for _, name := range f.Registry.Members() {
		if name == "city" {
			t.Fatal("drained member still registered")
		}
	}
	if err := f.RemoveServer("city"); err != nil {
		t.Fatal(err)
	}
	if f.FindServer("city") != nil {
		t.Fatal("removed member still in the federation")
	}
	if _, err := f.Drain("city"); err == nil {
		t.Fatal("draining a removed member succeeded")
	}
}
