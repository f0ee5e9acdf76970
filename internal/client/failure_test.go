package client_test

import (
	"context"
	"math/rand"
	"testing"

	"openflame/internal/core"
	"openflame/internal/geo"
	"openflame/internal/loc"
	"openflame/internal/worldgen"
)

// fixtureCue synthesizes an RSSI cue for a point inside the store.
func fixtureCue(t *testing.T, store *worldgen.IndoorBundle) []loc.Cue {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	return []loc.Cue{loc.SynthesizeRSSICue(geo.Point{X: 4, Y: 8}, store.Beacons,
		loc.DefaultRadioModel(), rng)}
}

// Federation members fail independently; the client must degrade, not die
// — the isolation benefit §1 claims for federated designs.

func TestSearchSurvivesDeadStoreServer(t *testing.T) {
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	f, err := core.DeployWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	store := w.Stores[0]
	entrance := trueEntrance(store)

	// Kill a different store's server; search near store 0 still works.
	other := f.FindServer("world-map")
	for _, h := range f.Servers {
		if h.Server.Name() != "world-map" && h.Server != f.Servers[0].Server {
			other = h
		}
	}
	other.HTTP.Close()

	c := f.NewClient()
	if got := c.SearchV2(context.Background(), store.Products[0], entrance, 10); len(got) == 0 {
		t.Fatal("search failed with an unrelated server down")
	}
}

func TestSearchDegradesWhenTargetStoreDies(t *testing.T) {
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	f, err := core.DeployWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	store := w.Stores[0]
	entrance := trueEntrance(store)
	product := store.Products[0]

	c := f.NewClient()
	before := c.SearchV2(context.Background(), product, entrance, 10)
	if len(before) == 0 {
		t.Fatal("setup: product not found")
	}

	// Kill the store that owns the shelf: its hits disappear, but the
	// client still returns (the world map's own results, possibly empty).
	name := store.PortalID[len("portal-"):]
	h := f.FindServer(name)
	if h == nil {
		t.Fatalf("server %q missing", name)
	}
	h.HTTP.Close()

	c2 := f.NewClient()
	after := c2.SearchV2(context.Background(), product, entrance, 10)
	for _, r := range after {
		if r.Source == name {
			t.Fatalf("dead server %q produced result %+v", name, r)
		}
	}
}

func TestRouteSurvivesUnrelatedServerDown(t *testing.T) {
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	f, err := core.DeployWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Kill store 1's server; an outdoor route (world-map only) still works.
	victim := w.Stores[1].PortalID[len("portal-"):]
	if h := f.FindServer(victim); h != nil {
		h.HTTP.Close()
	}
	c := f.NewClient()
	from := geo.LatLng{Lat: 40.4400, Lng: -79.9990}
	to := geo.Offset(geo.Offset(from, 300, 0), 300, 90)
	route, err := c.RouteV2(context.Background(), from, to)
	if err != nil {
		t.Fatalf("outdoor route failed with store server down: %v", err)
	}
	if route.ServersUsed != 1 {
		t.Fatalf("servers used = %d", route.ServersUsed)
	}
}

func TestLocalizeSurvivesPartialFailures(t *testing.T) {
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	f, err := core.DeployWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// With the world-map down (it offers no fingerprints anyway), indoor
	// localization still resolves through the store.
	f.FindServer("world-map").HTTP.Close()
	store := w.Stores[0]
	entrance := trueEntrance(store)
	c := f.NewClient()
	cue := fixtureCue(t, store)
	if _, ok := c.LocalizeV2(context.Background(), entrance, cue, entrance, 35); !ok {
		t.Fatal("localization failed with world map down")
	}
}
