package client_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestGeocodeBatchedMatchesPerCall pins the batched client against the
// per-call one: identical results, strictly fewer HTTP round trips — the
// world provider's whole coarse suffix walk plus its fine query collapse
// into one /v1/batch POST.
func TestGeocodeBatchedMatchesPerCall(t *testing.T) {
	f, w, c := worldFixture(t)
	cb := f.NewClient()
	cb.UseBatch = true

	store := w.Stores[0]
	address := store.Products[0] + " shelf, " + store.Map.Name

	want, err := c.GeocodeV2(context.Background(), address)
	if err != nil {
		t.Fatal(err)
	}
	perCall := c.RequestCount()
	got, err := cb.GeocodeV2(context.Background(), address)
	if err != nil {
		t.Fatal(err)
	}
	batched := cb.RequestCount()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batched geocode differs:\n%+v\n%+v", got, want)
	}
	if batched >= perCall {
		t.Fatalf("batched geocode used %d requests, per-call used %d", batched, perCall)
	}
	// A second identical geocode must not re-probe batch capability.
	if _, err := cb.GeocodeV2(context.Background(), address); err != nil {
		t.Fatal(err)
	}
	if d := cb.RequestCount() - batched; d != batched {
		t.Fatalf("second batched geocode cost %d requests, first cost %d", d, batched)
	}
}

// TestGeocodeBatchFallsBackToLegacyServer points the batched client at a
// world provider that predates /v1/batch (404): the client must fall back
// to the per-call walk transparently, answer identically, and remember the
// server as batch-incapable so the probe is not repeated.
func TestGeocodeBatchFallsBackToLegacyServer(t *testing.T) {
	f, w, c := worldFixture(t)
	world := f.FindServer("world-map")
	if world == nil {
		t.Fatal("no world server")
	}
	// A legacy façade over the live world server: everything passes
	// through except the batch endpoint.
	inner := world.Server.Handler()
	var batchProbes atomic.Int32
	legacy := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" {
			batchProbes.Add(1)
			http.NotFound(rw, r)
			return
		}
		inner.ServeHTTP(rw, r)
	}))
	defer legacy.Close()

	cb := f.NewClient()
	cb.UseBatch = true
	cb.WorldURL = legacy.URL
	c.WorldURL = legacy.URL

	store := w.Stores[0]
	address := store.Products[0] + " shelf, " + store.Map.Name
	want, err := c.GeocodeV2(context.Background(), address)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cb.GeocodeV2(context.Background(), address)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback geocode differs:\n%+v\n%+v", got, want)
	}
	if batchProbes.Load() != 1 {
		t.Fatalf("batch endpoint probed %d times, want 1", batchProbes.Load())
	}
	// The 404 was remembered: a second geocode goes straight per-call.
	if _, err := cb.GeocodeV2(context.Background(), address); err != nil {
		t.Fatal(err)
	}
	if batchProbes.Load() != 1 {
		t.Fatalf("batch endpoint re-probed after 404 (%d probes)", batchProbes.Load())
	}
}

// TestRouteBatchedMatchesPerCall pins stitched routing under batching:
// byte-for-byte the same composition, never more round trips.
func TestRouteBatchedMatchesPerCall(t *testing.T) {
	f, w, c := worldFixture(t)
	cb := f.NewClient()
	cb.UseBatch = true

	store := w.Stores[0]
	from := trueEntrance(store)
	shelf, err := c.GeocodeV2(context.Background(), store.Products[0]+" shelf, "+store.Map.Name)
	if err != nil {
		t.Fatal(err)
	}

	before := c.RequestCount()
	want, err := c.RouteV2(context.Background(), from, shelf.Position)
	if err != nil {
		t.Fatal(err)
	}
	perCall := c.RequestCount() - before
	got, err := cb.RouteV2(context.Background(), from, shelf.Position)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batched route differs:\n%+v\n%+v", got, want)
	}
	if cb.RequestCount() > perCall {
		t.Fatalf("batched route used %d requests, per-call baseline %d", cb.RequestCount(), perCall)
	}
}
