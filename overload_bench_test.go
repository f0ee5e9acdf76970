// E19: overload discipline — goodput and accepted-request tail latency
// under open-loop load past capacity, with admission control (bounded
// in-flight + bounded queue + 429 shedding) ON vs OFF on otherwise
// identical servers.
//
// The driver is deliberately open-loop (internal/loadgen): arrivals follow
// a fixed schedule at ~2.5× the server's measured closed-loop capacity,
// exactly the traffic a federation member faces from millions of
// independent clients (§1) — none of whom slow down because this server
// did. Without shedding, every excess request is admitted, queues on the
// scheduler, and blows through the client's patience: the server burns its
// capacity computing answers nobody is waiting for. With shedding, excess
// traffic is refused in microseconds and the work the server does perform
// still has a listener.
//
// TestE19BenchArtifact (env-gated, `make bench-overload`) writes the
// machine-readable BENCH_overload.json and enforces the floors the design
// claims: shedding-on goodput ≥ shedding-off, and p99 of ACCEPTED requests
// within the client timeout (no timeout collapse).
package openflame

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openflame/internal/geo"
	"openflame/internal/loadgen"
	"openflame/internal/mapserver"
	"openflame/internal/osm"
	"openflame/internal/wire"
	"openflame/internal/worldgen"
)

const (
	// e19MatrixK: each request prices a K×K route matrix with CH off, so
	// one request costs K² bidirectional Dijkstra runs — service time in
	// the milliseconds, keeping the overload arrival rates in the hundreds
	// per second so the single-process generator is never the bottleneck.
	e19MatrixK = 12
	// e19OverloadFactor: offered open-loop load relative to measured
	// closed-loop capacity.
	e19OverloadFactor = 2.5
	// e19Timeout is the synthetic client's patience; a response past it is
	// wasted server work.
	e19Timeout = 250 * time.Millisecond
	// e19WriteRatio mixes in-process inventory writes into the arrivals.
	e19WriteRatio = 0.05
)

// e19World is the shared serving fixture: a city big enough that an
// uncached, CH-less route matrix costs real CPU.
var e19World struct {
	once      sync.Once
	city      *osm.Map
	positions []geo.LatLng
	nodeIDs   []osm.NodeID
}

func e19Fixtures() {
	e19World.once.Do(func() {
		p := worldgen.DefaultCityParams()
		p.BlocksX, p.BlocksY = 20, 20
		e19World.city = worldgen.GenWorld(worldgen.WorldParams{City: p}).Outdoor
		e19World.city.Nodes(func(n *osm.Node) bool {
			e19World.positions = append(e19World.positions, e19World.city.NodePosition(n))
			e19World.nodeIDs = append(e19World.nodeIDs, n.ID)
			return true
		})
	})
}

// e19Server builds one serving stack: CH off and query cache off so every
// request performs its full compute (an overload experiment on memoized
// answers would measure the cache, not the discipline), admission on or
// off per maxInFlight.
func e19Server(t testing.TB, maxInFlight int) (*mapserver.Server, *httptest.Server) {
	t.Helper()
	e19Fixtures()
	srv, err := mapserver.New(mapserver.Config{
		Name:        "overload",
		Map:         e19World.city,
		UseCH:       false,
		MaxInFlight: maxInFlight,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// e19HTTPClient returns a client whose connection pool is not the
// bottleneck (the default transport caps idle conns per host at 2, which
// would serialize the open-loop fan-in).
func e19HTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4096,
		MaxIdleConnsPerHost: 4096,
	}}
}

// e19MatrixBody builds one route-matrix request body over K random points
// drawn from the Zipf-hot region.
func e19MatrixBody(rng *rand.Rand, regionDraw func() uint64, regions int) []byte {
	nPos := len(e19World.positions)
	chunk := nPos / regions
	region := int(regionDraw())
	pick := func() geo.LatLng {
		return e19World.positions[region*chunk+rng.Intn(chunk)]
	}
	req := wire.RouteMatrixRequest{
		FromNodes: make([]int64, e19MatrixK),
		ToNodes:   make([]int64, e19MatrixK),
	}
	for i := 0; i < e19MatrixK; i++ {
		req.FromPositions = append(req.FromPositions, pick())
		req.ToPositions = append(req.ToPositions, pick())
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return body
}

// e19Capacity measures closed-loop capacity: GOMAXPROCS workers, each
// issuing its next request only after the last answered — the self-
// throttling driver that cannot overload anything. Completions per second
// under it are the server's sustainable rate.
func e19Capacity(t testing.TB, url string, client *http.Client) float64 {
	t.Helper()
	const probe = 600 * time.Millisecond
	var completed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			regionDraw := loadgen.Zipf(rng, 1.2, 16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				body := e19MatrixBody(rng, regionDraw, 16)
				res, err := client.Post(url+"/routematrix", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("capacity probe: %v", err)
					return
				}
				_, _ = io.Copy(io.Discard, res.Body)
				res.Body.Close()
				if res.StatusCode == http.StatusOK {
					completed.Add(1)
				}
			}
		}(w)
	}
	start := time.Now()
	time.Sleep(probe)
	close(stop)
	wg.Wait()
	return float64(completed.Load()) / time.Since(start).Seconds()
}

// e19Run offers rate req/s open-loop for duration against the target,
// mixing e19WriteRatio in-process inventory writes.
func e19Run(srv *mapserver.Server, url string, client *http.Client, rate float64, duration time.Duration) *loadgen.Result {
	var seq atomic.Int64
	return loadgen.Run(context.Background(), loadgen.Config{
		Rate:       rate,
		Duration:   duration,
		Timeout:    e19Timeout,
		WriteRatio: e19WriteRatio,
		Seed:       19,
		Op: func(rng *rand.Rand, _ int, write bool) loadgen.Op {
			if write {
				// Writes are in-process by design: the serving API has no
				// write endpoint (mutations arrive via operator tooling and
				// replica anti-entropy), but write traffic still bumps the
				// generation and contends on the store exactly as under a
				// mixed workload.
				id := e19World.nodeIDs[rng.Intn(len(e19World.nodeIDs))]
				n := seq.Add(1)
				return func(ctx context.Context) loadgen.Outcome {
					srv.ApplyInventoryUpdate(id, osm.Tags{"stock": fmt.Sprintf("%d", n)})
					return loadgen.OK
				}
			}
			regionDraw := loadgen.Zipf(rng, 1.2, 16)
			body := e19MatrixBody(rng, regionDraw, 16)
			return func(ctx context.Context) loadgen.Outcome {
				hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/routematrix", bytes.NewReader(body))
				if err != nil {
					return loadgen.Error
				}
				hr.Header.Set("Content-Type", "application/json")
				res, err := client.Do(hr)
				if err != nil {
					if ctx.Err() != nil {
						return loadgen.Timeout
					}
					return loadgen.Error
				}
				defer res.Body.Close()
				_, _ = io.Copy(io.Discard, res.Body)
				return loadgen.ForStatus(res.StatusCode)
			}
		},
	})
}

type e19Side struct {
	GoodputPS float64 `json:"goodputPerSec"`
	Arrivals  int64   `json:"arrivals"`
	OK        int64   `json:"ok"`
	Shed      int64   `json:"shed"`
	Timeouts  int64   `json:"timeouts"`
	Errors    int64   `json:"errors"`
	Dropped   int64   `json:"dropped"`
	// Writes counts the in-process inventory updates mixed into the
	// arrivals; they complete in microseconds and are included in OK, so
	// subtract them when reading goodput as "HTTP answers per second".
	Writes int64   `json:"writes"`
	P50MS  float64 `json:"p50AcceptedMs"`
	P95MS  float64 `json:"p95AcceptedMs"`
	P99MS  float64 `json:"p99AcceptedMs"`
}

func e19Summarize(r *loadgen.Result) e19Side {
	return e19Side{
		GoodputPS: r.Goodput(),
		Arrivals:  r.Arrivals,
		OK:        r.OK,
		Shed:      r.Shed,
		Timeouts:  r.Timeouts,
		Errors:    r.Errors,
		Dropped:   r.Dropped,
		Writes:    r.Writes,
		P50MS:     float64(r.PercentileOK(50)) / float64(time.Millisecond),
		P95MS:     float64(r.PercentileOK(95)) / float64(time.Millisecond),
		P99MS:     float64(r.PercentileOK(99)) / float64(time.Millisecond),
	}
}

// TestE19BenchArtifact runs the overload comparison and writes
// BENCH_overload.json (when BENCH_OVERLOAD_JSON names the output path;
// `make bench-overload` sets it). Skipped in the ordinary test run — it
// deliberately saturates the machine for several seconds.
func TestE19BenchArtifact(t *testing.T) {
	out := os.Getenv("BENCH_OVERLOAD_JSON")
	if out == "" {
		t.Skip("set BENCH_OVERLOAD_JSON=<path> (or run `make bench-overload`) to produce the artifact")
	}
	client := e19HTTPClient()
	defer client.CloseIdleConnections()

	// Capacity is measured against the shedding-off server: closed-loop
	// drivers never trip admission control, so either server would do,
	// but "off" keeps the baseline pure.
	srvOff, tsOff := e19Server(t, 0)
	capacity := e19Capacity(t, tsOff.URL, client)
	if capacity <= 0 {
		t.Fatal("capacity probe measured nothing")
	}
	offered := capacity * e19OverloadFactor
	const duration = 2500 * time.Millisecond
	t.Logf("E19: closed-loop capacity %.0f req/s; offering %.0f req/s open-loop for %v", capacity, offered, duration)

	off := e19Run(srvOff, tsOff.URL, client, offered, duration)
	tsOff.Close()

	srvOn, tsOn := e19Server(t, runtime.GOMAXPROCS(0))
	on := e19Run(srvOn, tsOn.URL, client, offered, duration)
	adm := srvOn.AdmissionStats()

	artifact := struct {
		Experiment     string  `json:"experiment"`
		CapacityPS     float64 `json:"closedLoopCapacityPerSec"`
		OfferedPS      float64 `json:"offeredPerSec"`
		OverloadFactor float64 `json:"overloadFactor"`
		TimeoutMS      float64 `json:"clientTimeoutMs"`
		WriteRatio     float64 `json:"writeRatio"`
		SheddingOn     e19Side `json:"sheddingOn"`
		SheddingOff    e19Side `json:"sheddingOff"`
		ServerShed     int64   `json:"serverShedTotal"`
		ServerAdmitted int64   `json:"serverAdmitted"`
	}{
		Experiment:     "E19",
		CapacityPS:     capacity,
		OfferedPS:      offered,
		OverloadFactor: e19OverloadFactor,
		TimeoutMS:      float64(e19Timeout) / float64(time.Millisecond),
		WriteRatio:     e19WriteRatio,
		SheddingOn:     e19Summarize(on),
		SheddingOff:    e19Summarize(off),
		ServerShed:     adm.Shed(),
		ServerAdmitted: adm.Admitted,
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("E19: goodput on=%.0f/s off=%.0f/s | shed on=%d | timeouts on=%d off=%d | accepted p99 on=%.1fms off=%.1fms",
		artifact.SheddingOn.GoodputPS, artifact.SheddingOff.GoodputPS,
		artifact.SheddingOn.Shed, artifact.SheddingOn.Timeouts, artifact.SheddingOff.Timeouts,
		artifact.SheddingOn.P99MS, artifact.SheddingOff.P99MS)

	// The floors under test. Goodput: shedding must not cost throughput at
	// overload — the shed requests were doomed anyway; the discipline
	// spends the reclaimed capacity on requests that still have a waiting
	// client. Tail: what the admission-controlled server ACCEPTS it must
	// answer inside the client's patience — accepted-then-timed-out is the
	// collapse mode shedding exists to prevent.
	if artifact.SheddingOn.GoodputPS < artifact.SheddingOff.GoodputPS {
		t.Errorf("shedding-on goodput %.0f/s < shedding-off %.0f/s at %.1fx capacity",
			artifact.SheddingOn.GoodputPS, artifact.SheddingOff.GoodputPS, e19OverloadFactor)
	}
	if p99 := artifact.SheddingOn.P99MS; p99 > float64(e19Timeout)/float64(time.Millisecond) {
		t.Errorf("accepted-request p99 %.1fms exceeds the %v client timeout with shedding on", p99, e19Timeout)
	}
	if artifact.SheddingOn.Shed == 0 {
		t.Errorf("no sheds at %.1fx capacity — the experiment never exercised admission control", e19OverloadFactor)
	}
}
