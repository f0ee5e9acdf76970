package openflame

import (
	"context"
	"testing"

	"openflame/internal/align"
	"openflame/internal/centralized"
	"openflame/internal/core"
	"openflame/internal/geo"
	"openflame/internal/wire"
	"openflame/internal/worldgen"
)

var integrationCorner = geo.LatLng{Lat: 40.4400, Lng: -79.9990}

// federatedAnswer deploys the federation and returns the street→shelf route
// cost and the number of search hits for store 0's last product.
func federatedAnswer(t *testing.T, world *worldgen.World) (routeCost float64, hits int) {
	t.Helper()
	fed, err := core.DeployWorld(world)
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	c := fed.NewClient()
	store := world.Stores[0]
	product := store.Products[len(store.Products)-1]
	entrance := store.Correspondences[len(store.Correspondences)-1].World
	results := c.SearchV2(context.Background(), product, entrance, 10)
	if len(results) == 0 {
		t.Fatal("federated search empty")
	}
	route, err := c.RouteV2(context.Background(), integrationCorner, results[0].Position)
	if err != nil {
		t.Fatal(err)
	}
	return route.CostSeconds, len(results)
}

// centralizedAnswer runs the same queries against the Figure-1 baseline.
func centralizedAnswer(t *testing.T, world *worldgen.World) (routeCost float64, hits int) {
	t.Helper()
	sources := []centralized.Source{{Map: world.Outdoor}}
	for _, s := range world.Stores {
		ga, err := align.FitGeo(s.Correspondences)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, centralized.Source{Map: s.Map, Alignment: ga})
	}
	sys, err := centralized.Build(sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := world.Stores[0]
	product := store.Products[len(store.Products)-1]
	entrance := store.Correspondences[len(store.Correspondences)-1].World
	resp := sys.Search(wire.SearchRequest{Query: product, Near: &entrance,
		MaxDistanceMeters: 1000, Limit: 10})
	if len(resp.Results) == 0 {
		t.Fatal("centralized search empty")
	}
	route := sys.Route(wire.RouteRequest{From: integrationCorner, To: resp.Results[0].Position})
	if !route.Found {
		t.Fatal("centralized route missing")
	}
	return route.CostSeconds, len(resp.Results)
}
