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

// ================= E13: concurrent client fan-out ========================
// §5.2 makes the client the federation's aggregation point: one search
// reaches every covering server. E13 measures the end-to-end wall clock of
// that fan-out, sequential (MaxConcurrency=1, the pre-refactor client)
// versus concurrent (bounded pool), over federations of 1/4/16 members each
// answering after a fixed simulated service delay. Expected shape:
// sequential grows linearly with federation size, concurrent stays at
// ~one service delay until the pool saturates.

const e13Delay = 5 * time.Millisecond

// e13Federation registers n delayed HTTP search doubles on one cell.
func e13Federation(b *testing.B, n int) (*core.Federation, geo.LatLng) {
	b.Helper()
	fed, err := core.NewFederation()
	if err != nil {
		b.Fatal(err)
	}
	pos := geo.LatLng{Lat: 40.4433, Lng: -79.9436}
	token := s2cell.FromLatLng(pos).Parent(16).Token()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("bench-srv-%02d", i)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			t := time.NewTimer(e13Delay)
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
		if err := fed.Registry.Register(wire.Info{
			Name: name, Coverage: []string{token}, Services: []wire.Service{wire.SvcSearch},
		}, ts.URL); err != nil {
			b.Fatal(err)
		}
	}
	return fed, pos
}

func BenchmarkE13_FanoutLatency(b *testing.B) {
	for _, servers := range []int{1, 4, 16} {
		fed, pos := e13Federation(b, servers)
		for _, mode := range []struct {
			name        string
			concurrency int
		}{
			{"sequential", 1},
			{"concurrent", 0}, // default bounded pool
		} {
			b.Run(fmt.Sprintf("servers=%d/%s", servers, mode.name), func(b *testing.B) {
				c := fed.NewClient()
				c.MaxConcurrency = servers // sequential overridden below
				if mode.concurrency == 1 {
					c.MaxConcurrency = 1
				}
				c.SearchRadiusMeters = 100 // small covering: measure fan-out, not covering enumeration
				// Prime discovery and connections once.
				if got := c.SearchV2(context.Background(), "hit", pos, 2*servers); len(got) == 0 {
					b.Fatal("no results")
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if got := c.SearchV2(context.Background(), "hit", pos, 2*servers); len(got) == 0 {
						b.Fatal("no results")
					}
				}
				b.ReportMetric(float64(servers), "servers")
			})
		}
	}
}
