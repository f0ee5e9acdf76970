// E22: streaming read path — push invalidation vs polling on a churning
// region.
//
// The comparison holds freshness fixed and measures cost. N polling
// clients re-run the same standing query every pollInterval, so their
// staleness is bounded by the interval and their HTTP bill grows with
// population × duration ÷ interval — every poll pays for a full search
// whether or not anything changed. N watchers subscribe once: the hub
// coalesces them onto one evaluation per change batch (they share a
// query group), and each delta is pushed the moment it is applied, so
// the HTTP bill is one request per watcher per stream lifetime and the
// freshness is event latency, not a polling interval.
//
// TestE22BenchArtifact (env-gated, `make bench-watch`) writes the
// machine-readable BENCH_watch.json and enforces the floors: the watch
// side must spend at least 10× fewer HTTP requests than the poll side
// while delivering fresher results (delta p95 under the poll interval),
// every watcher must converge on the final write, and the hub must have
// coalesced (evaluations scale with churn, not with population).
package openflame

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openflame/internal/align"
	"openflame/internal/geo"
	"openflame/internal/mapserver"
	"openflame/internal/osm"
	"openflame/internal/wire"
	"openflame/internal/worldgen"
)

const (
	// e22Population is the client count on each side of the comparison.
	e22Population = 32
	// e22PollInterval is the polling side's freshness target: a poller is
	// at most this stale.
	e22PollInterval = 100 * time.Millisecond
	// e22ChurnInterval spaces the writes churning the watched region.
	e22ChurnInterval = 40 * time.Millisecond
	// e22Duration bounds each side's run; churn stops e22Settle before the
	// end so the final write's propagation is measured, not truncated.
	e22Duration = 2 * time.Second
	e22Settle   = 500 * time.Millisecond
)

// e22Fixture is one serving stack plus the subscription target: a store
// server and the node whose renames churn the standing query.
type e22Fixture struct {
	srv  *mapserver.Server
	ts   *httptest.Server
	node osm.NodeID
	near geo.LatLng
}

func e22Server(t testing.TB) *e22Fixture {
	t.Helper()
	entrance := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	bundle := worldgen.GenStore(worldgen.DefaultStoreParams("Corner Grocery", entrance))
	ga, err := align.FitGeo(bundle.Correspondences)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := mapserver.New(mapserver.Config{
		Name: "e22-grocery", Map: bundle.Map, Alignment: ga,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	hit := srv.Search(wire.SearchRequest{Query: bundle.Products[0]})
	if len(hit.Results) == 0 {
		t.Fatalf("product %q not found", bundle.Products[0])
	}
	return &e22Fixture{srv: srv, ts: ts, node: hit.Results[0].NodeID, near: hit.Results[0].Position}
}

// e22Stamps records each churn write's timestamp: snapshot is safe to
// call while the churn runs (a write's stamp lands before its update is
// applied, so any observed "Xyzchurn n" has stamps[n-1] set); wait
// blocks until the churn goroutine exits and returns the full record.
type e22Stamps struct {
	mu   sync.Mutex
	t    []time.Time
	done chan struct{}
}

func newE22Stamps() *e22Stamps { return &e22Stamps{done: make(chan struct{})} }

func (s *e22Stamps) snapshot() []time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t[:len(s.t):len(s.t)]
}

func (s *e22Stamps) wait() []time.Time {
	<-s.done
	return s.snapshot()
}

// e22Churn renames the target node "Xyzchurn <n>" every interval until
// ctx ends. The name always matches the standing query, so every write
// is an update delta, and the embedded counter lets observers compute
// per-write freshness against the stamp record.
func e22Churn(ctx context.Context, fx *e22Fixture, st *e22Stamps) {
	go func() {
		defer close(st.done)
		tick := time.NewTicker(e22ChurnInterval)
		defer tick.Stop()
		for n := 1; ; n++ {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			st.mu.Lock()
			st.t = append(st.t, time.Now())
			st.mu.Unlock()
			fx.srv.ApplyInventoryUpdate(fx.node, osm.Tags{"name": fmt.Sprintf("Xyzchurn %d", n)})
		}
	}()
}

func e22Query(fx *e22Fixture) wire.SearchRequest {
	near := fx.near
	return wire.SearchRequest{Query: "xyzchurn", Near: &near, MaxDistanceMeters: 500, Limit: 5}
}

// e22Observe parses "Xyzchurn <n>" results into per-write freshness: a
// result observed at `at` that first reveals write n contributes
// at-stamps[n-1]. lastSeen carries the observer's high-water mark.
func e22Observe(name string, at time.Time, stamps []time.Time, lastSeen *int, lats *[]time.Duration) {
	var n int
	if _, err := fmt.Sscanf(name, "Xyzchurn %d", &n); err != nil || n <= *lastSeen || n > len(stamps) {
		return
	}
	*lastSeen = n
	*lats = append(*lats, at.Sub(stamps[n-1]))
}

type e22Side struct {
	HTTPRequests int64 `json:"httpRequests"`
	// Observations counts writes whose first sighting contributed a
	// freshness sample (an observer can skip intermediates that a later
	// write superseded before it looked).
	Observations   int64   `json:"observations"`
	FinalConverged int     `json:"clientsConverged"`
	P50MS          float64 `json:"freshnessP50Ms"`
	P95MS          float64 `json:"freshnessP95Ms"`
}

func e22Percentile(lats []time.Duration, p float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := int(float64(len(lats)) * p / 100)
	if idx >= len(lats) {
		idx = len(lats) - 1
	}
	return float64(lats[idx]) / float64(time.Millisecond)
}

// e22Summarize folds the per-client tallies into one side of the
// comparison: writes is the churn total each client is judged against.
func e22Summarize(requests int64, finals []int, lats []time.Duration, writes int) e22Side {
	converged := 0
	for _, f := range finals {
		if f == writes {
			converged++
		}
	}
	return e22Side{
		HTTPRequests: requests, Observations: int64(len(lats)),
		FinalConverged: converged,
		P50MS:          e22Percentile(lats, 50), P95MS: e22Percentile(lats, 95),
	}
}

// e22Poll runs the polling population against a churn run and returns
// its side of the comparison plus the write count.
func e22Poll(t testing.TB, fx *e22Fixture, client *http.Client) (e22Side, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), e22Duration)
	defer cancel()
	churnCtx, churnCancel := context.WithTimeout(ctx, e22Duration-e22Settle)
	defer churnCancel()
	st := newE22Stamps()
	e22Churn(churnCtx, fx, st)
	body, err := json.Marshal(e22Query(fx))
	if err != nil {
		t.Fatal(err)
	}
	var requests atomic.Int64
	finals := make([]int, e22Population)
	latCh := make(chan []time.Duration, e22Population)
	var wg sync.WaitGroup
	for i := 0; i < e22Population; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var lats []time.Duration
			lastSeen := 0
			// Stagger the population across the interval so polls spread
			// out the way independent clients do.
			offset := time.Duration(i) * e22PollInterval / e22Population
			timer := time.NewTimer(offset)
			defer timer.Stop()
			for {
				select {
				case <-ctx.Done():
					finals[i] = lastSeen
					latCh <- lats
					return
				case <-timer.C:
				}
				timer.Reset(e22PollInterval)
				requests.Add(1)
				res, err := client.Post(fx.ts.URL+"/search", "application/json", bytes.NewReader(body))
				if err != nil {
					continue
				}
				var sr wire.SearchResponse
				err = json.NewDecoder(res.Body).Decode(&sr)
				_, _ = io.Copy(io.Discard, res.Body)
				res.Body.Close()
				if err != nil {
					continue
				}
				at := time.Now()
				for _, r := range sr.Results {
					e22Observe(r.Name, at, st.snapshot(), &lastSeen, &lats)
				}
			}
		}(i)
	}
	wg.Wait()
	var all []time.Duration
	for i := 0; i < e22Population; i++ {
		all = append(all, <-latCh...)
	}
	writes := len(st.wait())
	return e22Summarize(requests.Load(), finals, all, writes), writes
}

// e22Watch runs the watcher population: one subscription each, freshness
// measured per pushed delta. Churn is held until every watcher's init
// has landed, so the subscription cost (one request each) is paid before
// the first delta.
func e22Watch(t testing.TB, fx *e22Fixture, client *http.Client) (e22Side, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), e22Duration)
	defer cancel()
	st := newE22Stamps()
	body, err := json.Marshal(wire.SubscribeRequest{Query: e22Query(fx)})
	if err != nil {
		t.Fatal(err)
	}
	var requests atomic.Int64
	finals := make([]int, e22Population)
	latCh := make(chan []time.Duration, e22Population)
	ready := make(chan struct{}, e22Population)
	var wg sync.WaitGroup
	for i := 0; i < e22Population; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var lats []time.Duration
			lastSeen := 0
			defer func() {
				finals[i] = lastSeen
				latCh <- lats
			}()
			requests.Add(1)
			hr, err := http.NewRequestWithContext(ctx, http.MethodPost, fx.ts.URL+"/v1/watch", bytes.NewReader(body))
			if err != nil {
				t.Errorf("watcher %d: %v", i, err)
				return
			}
			hr.Header.Set("Content-Type", "application/json")
			res, err := client.Do(hr)
			if err != nil {
				t.Errorf("watcher %d: %v", i, err)
				return
			}
			defer res.Body.Close()
			if res.StatusCode != http.StatusOK {
				t.Errorf("watcher %d: status %d", i, res.StatusCode)
				return
			}
			sc := bufio.NewScanner(res.Body)
			sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
			var data []byte
			first := true
			for sc.Scan() {
				line := sc.Bytes()
				if len(line) == 0 {
					if len(data) == 0 {
						continue
					}
					var ev wire.Event
					if err := json.Unmarshal(data, &ev); err != nil {
						t.Errorf("watcher %d: bad frame: %v", i, err)
						return
					}
					data = nil
					if first {
						first = false
						ready <- struct{}{}
					}
					at := time.Now()
					stamps := st.snapshot()
					for _, r := range ev.Updated {
						e22Observe(r.Name, at, stamps, &lastSeen, &lats)
					}
					continue
				}
				if rest, ok := bytes.CutPrefix(line, []byte("data:")); ok {
					data = append(data, bytes.TrimPrefix(rest, []byte(" "))...)
				}
			}
		}(i)
	}
	for i := 0; i < e22Population; i++ {
		select {
		case <-ready:
		case <-ctx.Done():
			t.Fatal("watchers never initialized")
		}
	}
	churnCtx, churnCancel := context.WithTimeout(ctx, e22Duration-e22Settle)
	defer churnCancel()
	e22Churn(churnCtx, fx, st)
	wg.Wait()
	var all []time.Duration
	for i := 0; i < e22Population; i++ {
		all = append(all, <-latCh...)
	}
	writes := len(st.wait())
	return e22Summarize(requests.Load(), finals, all, writes), writes
}

// TestE22BenchArtifact runs the comparison and writes BENCH_watch.json
// (when BENCH_WATCH_JSON names the output path; `make bench-watch` sets
// it). Skipped in the ordinary test run — it holds churn for several
// seconds per side.
func TestE22BenchArtifact(t *testing.T) {
	out := os.Getenv("BENCH_WATCH_JSON")
	if out == "" {
		t.Skip("set BENCH_WATCH_JSON=<path> (or run `make bench-watch`) to produce the artifact")
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4096,
		MaxIdleConnsPerHost: 4096,
	}}
	defer client.CloseIdleConnections()

	pollFx := e22Server(t)
	poll, pollWrites := e22Poll(t, pollFx, client)
	pollFx.ts.Close()

	watchFx := e22Server(t)
	watch, watchWrites := e22Watch(t, watchFx, client)
	hub := watchFx.srv.WatchStats()

	artifact := struct {
		Experiment      string  `json:"experiment"`
		Population      int     `json:"population"`
		PollIntervalMS  float64 `json:"pollIntervalMs"`
		ChurnIntervalMS float64 `json:"churnIntervalMs"`
		DurationMS      float64 `json:"durationMs"`
		PollWrites      int     `json:"pollSideWrites"`
		WatchWrites     int     `json:"watchSideWrites"`
		Poll            e22Side `json:"poll"`
		Watch           e22Side `json:"watch"`
		HTTPRatio       float64 `json:"pollToWatchHTTPRatio"`
		HubDrains       uint64  `json:"hubDrains"`
		HubEvals        uint64  `json:"hubEvals"`
		HubEvents       uint64  `json:"hubEventsDelivered"`
	}{
		Experiment:      "E22",
		Population:      e22Population,
		PollIntervalMS:  float64(e22PollInterval) / float64(time.Millisecond),
		ChurnIntervalMS: float64(e22ChurnInterval) / float64(time.Millisecond),
		DurationMS:      float64(e22Duration) / float64(time.Millisecond),
		PollWrites:      pollWrites,
		WatchWrites:     watchWrites,
		Poll:            poll,
		Watch:           watch,
		HTTPRatio:       float64(poll.HTTPRequests) / float64(watch.HTTPRequests),
		HubDrains:       hub.Drains,
		HubEvals:        hub.Evals,
		HubEvents:       hub.Events,
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("E22: http poll=%d watch=%d (%.1fx) | freshness p95 poll=%.1fms watch=%.1fms | converged poll=%d/%d watch=%d/%d | hub evals=%d for %d writes",
		poll.HTTPRequests, watch.HTTPRequests, artifact.HTTPRatio,
		poll.P95MS, watch.P95MS,
		poll.FinalConverged, e22Population, watch.FinalConverged, e22Population,
		hub.Evals, watchWrites)

	// The floors under test. Cost: the whole point of push is that N
	// standing queries stop costing N×(duration/interval) searches.
	if watch.HTTPRequests*10 > poll.HTTPRequests {
		t.Errorf("watch side spent %d HTTP requests vs poll's %d — less than the 10x saving the design claims",
			watch.HTTPRequests, poll.HTTPRequests)
	}
	// Freshness: pushed deltas must beat the polling interval — matched
	// (better) staleness is the premise of the cost comparison.
	if watch.Observations > 0 && watch.P95MS > float64(e22PollInterval)/float64(time.Millisecond) {
		t.Errorf("watch freshness p95 %.1fms exceeds the %.0fms poll interval — not an apples-to-apples saving",
			watch.P95MS, float64(e22PollInterval)/float64(time.Millisecond))
	}
	if watch.Observations == 0 || watchWrites == 0 {
		t.Errorf("watch side observed nothing (%d observations, %d writes) — the experiment never exercised push",
			watch.Observations, watchWrites)
	}
	// Delivery: every watcher converges on the final write (deltas may
	// batch, but nothing is lost).
	if watch.FinalConverged != e22Population {
		t.Errorf("only %d/%d watchers converged on the final write", watch.FinalConverged, e22Population)
	}
	// Coalescing: evaluations scale with churn (one per drained batch),
	// not with the watcher population.
	if watchWrites > 0 && hub.Evals > uint64(watchWrites)+uint64(e22Population) {
		t.Errorf("hub ran %d evaluations for %d writes and %d watchers — population-coupled evaluation, coalescing is broken",
			hub.Evals, watchWrites, e22Population)
	}
}
