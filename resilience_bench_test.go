package openflame

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"openflame/internal/core"
	"openflame/internal/geo"
	"openflame/internal/netsim"
	"openflame/internal/resilience"
	"openflame/internal/s2cell"
	"openflame/internal/search"
	"openflame/internal/wire"
)

// ================= E14: resilient fan-out under faults ====================
// §1 claims federation isolates failures: a slow or failed member is
// skipped, not waited on. E13 showed the happy-path half (fan-out latency
// is O(slowest server)); E14 measures the unhappy path: a 16-member
// federation where 2 members flap (one alternates short blackholes, one
// alternates 503 bursts — netsim fault schedules advancing per request).
// The unhedged client (PR 1 behavior + a per-server timeout) pays the full
// timeout on every blackholed call and permanently loses the 503'd
// member's results; the resilient client (retries + hedging + breakers)
// recovers both. Expected shape: resilient p99 collapses from ≈ the
// per-server timeout to ≈ the hedge delay, and full-coverage rate rises
// toward 1.

const (
	e14Servers = 16
	e14Faulty  = 2
	e14Delay   = 5 * time.Millisecond
	e14Timeout = 150 * time.Millisecond
)

// e14Federation registers n delayed search doubles; the first `faulty` get
// flapping fault schedules (even index: blackhole flap, odd: 503 flap).
func e14Federation(b *testing.B) (*core.Federation, geo.LatLng) {
	b.Helper()
	fed, err := core.NewFederation()
	if err != nil {
		b.Fatal(err)
	}
	pos := geo.LatLng{Lat: 40.4433, Lng: -79.9436}
	token := s2cell.FromLatLng(pos).Parent(16).Token()
	for i := 0; i < e14Servers; i++ {
		name := fmt.Sprintf("e14-srv-%02d", i)
		var handler http.Handler = e14SearchDouble(name, pos)
		if i < e14Faulty {
			var sched *netsim.FaultSchedule
			if i%2 == 0 {
				// One request in five vanishes into a blackhole: the
				// tail-latency fault hedging exists for.
				sched = netsim.NewFaultSchedule(
					netsim.FaultPhase{Mode: netsim.FaultNone, Requests: 4},
					netsim.FaultPhase{Mode: netsim.FaultBlackhole, Requests: 1},
				).Loop()
			} else {
				// Bursts of two 503s: the transient fault retries recover.
				sched = netsim.NewFaultSchedule(
					netsim.FaultPhase{Mode: netsim.FaultNone, Requests: 3},
					netsim.FaultPhase{Mode: netsim.FaultError, Requests: 2},
				).Loop()
			}
			handler = sched.Wrap(handler)
		}
		ts := httptest.NewServer(handler)
		b.Cleanup(ts.Close)
		if err := fed.Registry.Register(wire.Info{
			Name: name, Coverage: []string{token}, Services: []wire.Service{wire.SvcSearch},
		}, ts.URL); err != nil {
			b.Fatal(err)
		}
	}
	return fed, pos
}

func e14SearchDouble(name string, pos geo.LatLng) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		t := time.NewTimer(e14Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(wire.SearchResponse{Results: []search.Result{
			{Name: "hit from " + name, Position: pos, TextScore: 1, Score: 1, Source: name},
		}})
	})
}

func BenchmarkE14_ResilientFanout(b *testing.B) {
	for _, mode := range []struct {
		name      string
		resilient bool
	}{
		{"unhedged", false}, // PR 1 behavior: per-server timeout only
		{"resilient", true}, // retries + hedging + breakers
	} {
		b.Run(mode.name, func(b *testing.B) {
			fed, pos := e14Federation(b)
			c := fed.NewClient()
			c.SearchRadiusMeters = 100
			c.PerServerTimeout = e14Timeout
			if mode.resilient {
				c.Resilience = resilience.NewTracker(resilience.Policy{
					Retry:            resilience.RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * time.Millisecond, Budget: 8},
					HedgeAfter:       3 * e14Delay,
					BreakerThreshold: 4,
					BreakerCooldown:  500 * time.Millisecond,
				})
			}
			// Prime discovery and connections once.
			_ = c.SearchV2(context.Background(), "hit", pos, 2*e14Servers)

			lats := make([]time.Duration, 0, b.N)
			full := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				results := c.SearchV2(context.Background(), "hit", pos, 2*e14Servers)
				lats = append(lats, time.Since(start))
				srcs := map[string]bool{}
				for _, r := range results {
					srcs[r.Source] = true
				}
				if len(srcs) == e14Servers {
					full++
				}
			}
			b.StopTimer()
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			pct := func(p float64) time.Duration {
				idx := int(p * float64(len(lats)))
				if idx >= len(lats) {
					idx = len(lats) - 1
				}
				return lats[idx]
			}
			b.ReportMetric(float64(pct(0.50))/1e6, "p50_ms")
			b.ReportMetric(float64(pct(0.99))/1e6, "p99_ms")
			b.ReportMetric(float64(full)/float64(len(lats)), "full_coverage")
		})
	}
}
