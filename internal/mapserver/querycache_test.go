package mapserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openflame/internal/geo"
	"openflame/internal/osm"
	"openflame/internal/store"
	"openflame/internal/tiles"
	"openflame/internal/wire"
	"openflame/internal/worldgen"
)

// cachedCityServer builds a city server with the query cache enabled.
func cachedCityServer(t testing.TB, entries int) *Server {
	t.Helper()
	city := cityMap()
	srv, err := New(Config{Name: "city", Map: city, QueryCacheEntries: entries})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestQueryCacheHitsAndStaysByteIdentical(t *testing.T) {
	cached := cachedCityServer(t, 128)
	uncached := cityServer(t) // independent, identical deterministic world
	for _, svc := range []string{"geocode", "search", "rgeocode", "route", "routematrix"} {
		var got, want interface{}
		switch svc {
		case "geocode":
			req := wire.GeocodeRequest{Query: "3rd Street", Limit: 5}
			cached.Geocode(req)
			got, want = cached.Geocode(req), uncached.Geocode(req)
		case "search":
			req := wire.SearchRequest{Query: "3rd Street", Limit: 5}
			cached.Search(req)
			got, want = cached.Search(req), uncached.Search(req)
		case "rgeocode":
			pos := cached.Geocode(wire.GeocodeRequest{Query: "3rd Street", Limit: 1}).Results[0].Position
			req := wire.RGeocodeRequest{Position: pos, MaxMeters: 200}
			cached.RGeocode(req)
			got, want = cached.RGeocode(req), uncached.RGeocode(req)
		case "route":
			a := cached.Geocode(wire.GeocodeRequest{Query: "1st Street", Limit: 1}).Results[0].Position
			b := cached.Geocode(wire.GeocodeRequest{Query: "3rd Street", Limit: 1}).Results[0].Position
			req := wire.RouteRequest{From: a, To: b}
			cached.Route(req)
			got, want = cached.Route(req), uncached.Route(req)
		case "routematrix":
			a := cached.Geocode(wire.GeocodeRequest{Query: "1st Street", Limit: 1}).Results[0].Position
			b := cached.Geocode(wire.GeocodeRequest{Query: "3rd Street", Limit: 1}).Results[0].Position
			req := wire.RouteMatrixRequest{FromPositions: []geo.LatLng{a}, ToPositions: []geo.LatLng{b}}
			cached.RouteMatrix(req)
			got, want = cached.RouteMatrix(req), uncached.RouteMatrix(req)
		}
		gb, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("%s: cached response differs from uncached:\n%s\n%s", svc, gb, wb)
		}
	}
	stats := cached.QueryCacheStats()
	if stats.Hits == 0 || stats.Entries == 0 {
		t.Fatalf("cache never hit: %+v", stats)
	}
	if uncached.QueryCacheStats() != (QueryCacheStats{}) {
		t.Fatal("uncached server reports cache activity")
	}
}

func TestQueryCacheInvalidatedByWrite(t *testing.T) {
	entrance := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	bundle := worldgen.GenStore(worldgen.DefaultStoreParams("Cache Grocery", entrance))
	srv, err := New(Config{Name: "cache-grocery", Map: bundle.Map, QueryCacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	shelf := bundle.Map.FindNodes(func(n *osm.Node) bool {
		return n.Tags.Has(osm.TagProduct)
	})[0]
	product := shelf.Tags.Get(osm.TagProduct)

	req := wire.SearchRequest{Query: product}
	if len(srv.Search(req).Results) == 0 {
		t.Fatalf("product %q not found", product)
	}
	srv.Search(req) // warm: second identical query is a hit
	if stats := srv.QueryCacheStats(); stats.Hits == 0 {
		t.Fatalf("no hit on repeated query: %+v", stats)
	}

	gen := srv.Generation()
	tags := shelf.Tags.Clone()
	tags[osm.TagName] = "renamed shelf"
	tags[osm.TagProduct] = "renamed"
	if !srv.ApplyInventoryUpdate(shelf.ID, tags) {
		t.Fatal("update failed")
	}
	if g := srv.Generation(); g != gen+1 {
		t.Fatalf("generation %d -> %d, want one bump", gen, g)
	}
	// The write purged prior-generation entries eagerly.
	if stats := srv.QueryCacheStats(); stats.Purged == 0 {
		t.Fatalf("write purged nothing: %+v", stats)
	}
	// And the same query now sees the new map, not a stale memo.
	if got := srv.Search(wire.SearchRequest{Query: "renamed"}); len(got.Results) == 0 {
		t.Fatal("post-update search missed the renamed shelf")
	}
	for _, r := range srv.Search(req).Results {
		if r.NodeID == shelf.ID {
			t.Fatalf("stale cached result still lists the old product: %+v", r)
		}
	}
}

func TestQueryCacheSingleflight(t *testing.T) {
	srv := cachedCityServer(t, 16)
	var computes atomic.Int32
	compute := func(_ *store.View, req wire.GeocodeRequest) wire.GeocodeResponse {
		computes.Add(1)
		time.Sleep(20 * time.Millisecond)
		return wire.GeocodeResponse{Results: []wire.GeocodeResult{{Name: req.Query}}}
	}
	const callers = 8
	results := make([]wire.GeocodeResponse, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = cachedQuery(context.Background(), srv, srv.store.View(), "flight-test", wire.GeocodeRequest{Query: "hot"}, compute)
		}(i)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("hot query computed %d times, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
	// A different request computes independently.
	cachedQuery(context.Background(), srv, srv.store.View(), "flight-test", wire.GeocodeRequest{Query: "cold"}, compute)
	if n := computes.Load(); n != 2 {
		t.Fatalf("distinct query coalesced: computes = %d", n)
	}
}

func TestQueryCacheEvictsAtCapacity(t *testing.T) {
	srv := cachedCityServer(t, 2)
	for _, q := range []string{"1st Street", "2nd Street", "3rd Street"} {
		srv.Geocode(wire.GeocodeRequest{Query: q, Limit: 1})
	}
	stats := srv.QueryCacheStats()
	if stats.Entries > 2 {
		t.Fatalf("cache holds %d entries, cap 2", stats.Entries)
	}
	if stats.Evicted == 0 {
		t.Fatalf("no eviction recorded: %+v", stats)
	}
}

// TestTileRerenderAfterInventoryUpdate is the serve-after-update
// regression: a tile rendered before an inventory update must not be
// served stale afterwards.
func TestTileRerenderAfterInventoryUpdate(t *testing.T) {
	srv, bundle := storeServer(t, nil)
	shelf := bundle.Map.FindNodes(func(n *osm.Node) bool {
		return n.Tags.Has(osm.TagProduct)
	})[0]
	coord := tiles.FromLatLng(bundle.Map.NodePosition(shelf), 20)
	before, err := srv.Tile(coord)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the shelf of everything that makes it a POI: its dot must
	// vanish from the re-rendered tile.
	if !srv.ApplyInventoryUpdate(shelf.ID, osm.Tags{osm.TagIndoor: "yes"}) {
		t.Fatal("update failed")
	}
	after, err := srv.Tile(coord)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(before, after) {
		t.Fatal("stale tile served after inventory update")
	}
}

// TestQueryCachePanicDoesNotPoisonFollowers pins singleflight panic
// containment: followers coalesced behind a leader whose compute panics
// must compute independently, not crash on the nil shared value.
func TestQueryCachePanicDoesNotPoisonFollowers(t *testing.T) {
	srv := cachedCityServer(t, 16)
	var calls atomic.Int32
	leaderIn := make(chan struct{})
	compute := func(_ *store.View, req wire.GeocodeRequest) wire.GeocodeResponse {
		if calls.Add(1) == 1 {
			close(leaderIn)
			time.Sleep(30 * time.Millisecond)
			panic("kaboom")
		}
		return wire.GeocodeResponse{Results: []wire.GeocodeResult{{Name: "ok"}}}
	}
	leaderDone := make(chan struct{})
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
			close(leaderDone)
		}()
		cachedQuery(context.Background(), srv, srv.store.View(), "panic-test", wire.GeocodeRequest{Query: "x"}, compute)
	}()
	<-leaderIn
	got := cachedQuery(context.Background(), srv, srv.store.View(), "panic-test", wire.GeocodeRequest{Query: "x"}, compute)
	<-leaderDone
	if len(got.Results) != 1 || got.Results[0].Name != "ok" {
		t.Fatalf("follower result = %+v", got)
	}
}

// TestTilesBoundedByQueryCache: tiles are memoized in the server's one
// bounded query cache, so 200 distinct tiles through a 64-entry cache leave
// exactly 64 entries; a coordinate that names no tile is refused with 400
// and adds none; every 200 is stamped with the generation it was rendered
// from; and a write retires every cached tile.
func TestTilesBoundedByQueryCache(t *testing.T) {
	entrance := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	bundle := worldgen.GenStore(worldgen.DefaultStoreParams("Corner Grocery", entrance))
	srv, err := New(Config{Name: "corner-grocery", Map: bundle.Map, QueryCacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get := func(path string, want int) {
		t.Helper()
		res, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, res.StatusCode, want)
		}
		if want == http.StatusOK && res.Header.Get(HeaderGeneration) != strconv.FormatUint(srv.Generation(), 10) {
			t.Fatalf("GET %s: generation %q, want %d", path, res.Header.Get(HeaderGeneration), srv.Generation())
		}
	}

	origin := tiles.FromLatLng(entrance, 20)
	for i := 0; i < 200; i++ {
		get(fmt.Sprintf("/tiles/%v.png", tiles.Coord{Z: 20, X: origin.X - 10 + i%20, Y: origin.Y - 5 + i/20}), http.StatusOK)
	}
	st := srv.QueryCacheStats()
	if st.Entries != 64 || st.Evicted != 200-64 {
		t.Fatalf("200 tiles through a 64-entry cache: %+v", st)
	}

	for _, c := range []tiles.Coord{{Z: 22, X: -1, Y: 0}, {Z: 22, X: 1 << 22, Y: 0}, {Z: 3, X: 0, Y: 8}, {Z: 23, X: 0, Y: 0}} {
		get(fmt.Sprintf("/tiles/%v.png", c), http.StatusBadRequest)
		if _, err := srv.Tile(c); err == nil {
			t.Fatalf("Tile(%v) rendered a coordinate that names no tile", c)
		}
	}
	if after := srv.QueryCacheStats(); after.Entries != st.Entries || after.Misses != st.Misses {
		t.Fatalf("refused coordinates reached the cache: before %+v, after %+v", st, after)
	}

	shelf := bundle.Map.FindNodes(func(n *osm.Node) bool { return n.Tags.Has(osm.TagProduct) })[0]
	if !srv.ApplyInventoryUpdate(shelf.ID, osm.Tags{osm.TagIndoor: "yes"}) {
		t.Fatal("update failed")
	}
	if after := srv.QueryCacheStats(); after.Entries != 0 || after.Purged != 64 {
		t.Fatalf("a write left cached tiles behind: %+v", after)
	}
	get(fmt.Sprintf("/tiles/%v.png", origin), http.StatusOK)
}

// TestCachedResultNeverCachesFailure: a failed compute (a tile render
// error) reaches its caller and leaves no entry behind, and a cancelled
// caller gets its context's error rather than an empty answer it could
// serve as a 200.
func TestCachedResultNeverCachesFailure(t *testing.T) {
	srv := cachedCityServer(t, 16)
	v := srv.store.View()
	boom := errors.New("render failed")
	calls := 0
	fail := func(*store.View, tiles.Coord) ([]byte, error) { calls++; return nil, boom }
	for i := 0; i < 2; i++ {
		if _, err := cachedResult(context.Background(), srv, v, wire.SvcTiles, tiles.Coord{Z: 1}, fail); !errors.Is(err, boom) {
			t.Fatalf("call %d: err %v, want the render error", i, err)
		}
	}
	if st := srv.QueryCacheStats(); st.Entries != 0 || calls < 2 {
		t.Fatalf("a failed render was cached: %+v after %d computes", st, calls)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ok := func(*store.View, tiles.Coord) ([]byte, error) { return []byte("png"), nil }
	if b, err := cachedResult(ctx, srv, v, wire.SvcTiles, tiles.Coord{Z: 1}, ok); err == nil || b != nil {
		t.Fatalf("cancelled caller got (%q, %v), want the context error", b, err)
	}
}
