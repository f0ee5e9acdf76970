package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"openflame/internal/discovery"
	"openflame/internal/geo"
	"openflame/internal/mapserver"
	"openflame/internal/netsim"
	"openflame/internal/resilience"
	"openflame/internal/s2cell"
	"openflame/internal/worldgen"
)

func TestNewFederationEmpty(t *testing.T) {
	f, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c := f.NewClient()
	// Nothing registered: discovery is empty everywhere.
	if got := c.DiscoverV2(context.Background(), geo.LatLng{Lat: 40.44, Lng: -79.99}); len(got) != 0 {
		t.Fatalf("empty federation discovered %v", got)
	}
}

func TestDeployWorld(t *testing.T) {
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	f, err := DeployWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if len(f.Servers) != 1+len(w.Stores) {
		t.Fatalf("servers = %d", len(f.Servers))
	}
	if f.FindServer("world-map") == nil {
		t.Fatal("world-map missing")
	}
	if f.FindServer("nonexistent") != nil {
		t.Fatal("phantom server found")
	}
	// Every store server is named after its portal.
	for _, s := range w.Stores {
		name := s.PortalID[len("portal-"):]
		if f.FindServer(name) == nil {
			t.Fatalf("store server %q missing", name)
		}
	}
	// Discovery at a store entrance finds both the world map and the store.
	entrance := s0Entrance(w)
	c := f.NewClient()
	names := map[string]bool{}
	for _, a := range c.DiscoverV2(context.Background(), entrance) {
		names[a.Name] = true
	}
	if !names["world-map"] {
		t.Fatalf("world-map not discovered at entrance: %v", names)
	}
	storeFound := false
	for n := range names {
		if strings.Contains(n, "grocery") || strings.Contains(n, "market") ||
			strings.Contains(n, "foods") || strings.Contains(n, "pantry") {
			storeFound = true
		}
	}
	if !storeFound {
		t.Fatalf("no store discovered at its own entrance: %v", names)
	}
}

func s0Entrance(w *worldgen.World) geo.LatLng {
	c := w.Stores[0].Correspondences
	return c[len(c)-1].World
}

// TestAddFaultyServer wires a netsim fault schedule between the client and
// a real map server: the first search attempt is 503'd by the injector,
// the retry policy recovers it, and the schedule's counters prove the
// fault actually fired.
func TestAddFaultyServer(t *testing.T) {
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	f, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv, err := mapserver.New(mapserver.Config{Name: "world-map", Map: w.Outdoor})
	if err != nil {
		t.Fatal(err)
	}
	sched := netsim.FailFirst(1, 503)
	h, err := f.AddFaultyServer(srv, sched)
	if err != nil {
		t.Fatal(err)
	}
	if h.Faults != sched {
		t.Fatal("handle does not carry its fault schedule")
	}

	c := f.NewClient()
	c.Resilience = resilience.NewTracker(resilience.Policy{
		Retry: resilience.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
	})
	pos := geo.LatLng{Lat: 40.4400, Lng: -79.9990}
	if got := c.SearchV2(context.Background(), "Street", pos, 5); len(got) == 0 {
		t.Fatal("search through the fault injector found nothing after retry")
	}
	if sched.Faulted() == 0 {
		t.Fatal("fault schedule never fired")
	}
	if sched.Requests() < 2 {
		t.Fatalf("server saw %d requests, want the original and the retry", sched.Requests())
	}
}

func TestClientHasWorldURL(t *testing.T) {
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	f, err := DeployWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c := f.NewClient()
	if _, err := c.GeocodeV2(context.Background(), "1st Street"); err != nil {
		t.Fatalf("world geocode through client failed: %v", err)
	}
}

// TestRegistrationLevelsMatchDiscoverySweep pins the registration level
// range to the discovery protocol's: every coverage cell the city and each
// store server publish lies in [DefaultMinLevel, DefaultMaxLevel] — the
// only levels a client sweeps — and a default discovery client standing at
// a server's bounds centre finds it. A cell outside the range (a server
// registered at level 17–18, or at 11) is published and never found.
func TestRegistrationLevelsMatchDiscoverySweep(t *testing.T) {
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	f, err := DeployWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	disc := discovery.NewClient(f.NewResolver(), discovery.DefaultSuffix)
	for _, h := range f.Servers {
		info := h.Server.Info()
		if len(info.Coverage) == 0 {
			t.Fatalf("server %q publishes no coverage", info.Name)
		}
		for _, tok := range info.Coverage {
			if l := s2cell.FromToken(tok).Level(); l < discovery.DefaultMinLevel || l > discovery.DefaultMaxLevel {
				t.Fatalf("server %q publishes cell %s at level %d, outside the swept %d..%d",
					info.Name, tok, l, discovery.DefaultMinLevel, discovery.DefaultMaxLevel)
			}
		}
		centre := h.Server.Store().View().Bounds().Center()
		found := false
		for _, a := range disc.DiscoverCtx(context.Background(), centre) {
			found = found || a.Name == info.Name
		}
		if !found {
			t.Fatalf("server %q not discovered at its own bounds centre %v", info.Name, centre)
		}
	}
}

// TestDeployWorldAllServersUseCH pins that CH preprocessing covers every
// serving path: the world map AND each independently-operated store server
// come up with an active hierarchy (DeployWorld waits for the background
// builds).
func TestDeployWorldAllServersUseCH(t *testing.T) {
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	f, err := DeployWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, h := range f.Servers {
		if !h.Server.CHActive() {
			t.Fatalf("server %q has no active hierarchy", h.Server.Name())
		}
	}
}
