package openflame

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"openflame/internal/core"
	"openflame/internal/geo"
	"openflame/internal/s2cell"
	"openflame/internal/search"
	"openflame/internal/wire"
)

// ============ E16: replica-aware fan-out over a hot region ===============
// PR 4's membership refactor lets N servers register as one replica SET:
// the client's query plan contacts ONE member per set (failing over on
// error) instead of querying everyone and deduplicating. E16 measures a
// hot region served by 8 replicas under both registrations:
//
//   - query-everyone: 8 solo registrations (the pre-plan behaviour) — every
//     search costs 8 HTTP requests whose answers dedup to one.
//   - replica-set: the same 8 servers registered as one set — every search
//     costs 1 request, and the other 7 replicas are free capacity.
//
// Reported metrics: ns/op (end-to-end latency, dominated by the simulated
// per-server service delay) and httpreqs/op (the federation-wide fan-out
// cost, the multiplier that decides how many users N replicas can absorb).

const (
	e16Replicas = 8
	e16Delay    = 2 * time.Millisecond
)

// e16Federation registers n delayed search doubles on one cell — all in
// one replica set (replicaSet != "") or as solo members.
func e16Federation(b *testing.B, n int, replicaSet string) (*core.Federation, geo.LatLng) {
	b.Helper()
	fed, err := core.NewFederation()
	if err != nil {
		b.Fatal(err)
	}
	pos := geo.LatLng{Lat: 40.4433, Lng: -79.9436}
	token := s2cell.FromLatLng(pos).Parent(16).Token()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("hot-%02d", i)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			t := time.NewTimer(e16Delay)
			defer t.Stop()
			select {
			case <-t.C:
			case <-r.Context().Done():
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(wire.SearchResponse{Results: []search.Result{
				{Name: "hit", Position: pos, TextScore: 1, Score: 1, Source: name},
			}})
		}))
		b.Cleanup(ts.Close)
		if err := fed.Registry.RegisterReplica(wire.Info{
			Name: name, Coverage: []string{token}, Services: []wire.Service{wire.SvcSearch},
		}, ts.URL, replicaSet); err != nil {
			b.Fatal(err)
		}
	}
	return fed, pos
}

func BenchmarkE16_ReplicaAwareFanout(b *testing.B) {
	for _, mode := range []struct {
		name       string
		replicaSet string
	}{
		{"query-everyone", ""},
		{"replica-set", "hot-region"},
	} {
		b.Run(mode.name, func(b *testing.B) {
			fed, pos := e16Federation(b, e16Replicas, mode.replicaSet)
			c := fed.NewClient()
			c.SearchRadiusMeters = 100
			// Prime discovery and connections once.
			if got := c.SearchV2(context.Background(), "hit", pos, 2*e16Replicas); len(got) == 0 {
				b.Fatal("no results")
			}
			before := c.RequestCount()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := c.SearchV2(context.Background(), "hit", pos, 2*e16Replicas); len(got) == 0 {
					b.Fatal("no results")
				}
			}
			b.StopTimer()
			reqs := c.RequestCount() - before
			b.ReportMetric(float64(reqs)/float64(b.N), "httpreqs/op")
		})
	}
}

// BenchmarkE16_ThroughputUnderClientLoad drives many concurrent client
// goroutines at the same two federations: with query-everyone, every query
// occupies all 8 replicas; with the replica set, 8 queries can ride 8
// different members. The replica-set federation sustains ~Nx the aggregate
// throughput for the same per-request latency floor.
func BenchmarkE16_ThroughputUnderClientLoad(b *testing.B) {
	for _, mode := range []struct {
		name       string
		replicaSet string
	}{
		{"query-everyone", ""},
		{"replica-set", "hot-region"},
	} {
		b.Run(mode.name, func(b *testing.B) {
			fed, pos := e16Federation(b, e16Replicas, mode.replicaSet)
			prime := fed.NewClient()
			prime.SearchRadiusMeters = 100
			if got := prime.SearchV2(context.Background(), "hit", pos, 2*e16Replicas); len(got) == 0 {
				b.Fatal("no results")
			}
			b.SetParallelism(4) // 4x GOMAXPROCS client goroutines
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// One client (own resolver cache and health state) per
				// goroutine, as distinct user devices would be.
				c := fed.NewClient()
				c.SearchRadiusMeters = 100
				for pb.Next() {
					if got := c.SearchV2(context.Background(), "hit", pos, 2*e16Replicas); len(got) == 0 {
						b.Fatal("no results")
					}
				}
			})
		})
	}
}
