package mapserver

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openflame/internal/admission"
	"openflame/internal/store"
	"openflame/internal/wire"
)

// overloadServer builds a city server with admission control and a long
// consistency grace, so tests can wedge handler slots deterministically:
// a request carrying an unsatisfiable session mark parks inside WaitFresh
// (holding its admission slot) until its client goes away. The queue shape
// is set on the controller directly; Config only carries the in-flight
// bound.
func overloadServer(t testing.TB, maxInFlight, maxQueue int, queueWait time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	city := cityMap()
	srv, err := New(Config{
		Name:            "city",
		Map:             city,
		MaxInFlight:     maxInFlight,
		ConsistencyWait: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.adm = admission.New(admission.Config{MaxInFlight: maxInFlight, MaxQueue: maxQueue, QueueWait: queueWait})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// wedgeBody is a geocode request no replica can ever vouch for: it parks
// the handler in WaitFresh for the full consistency grace.
func wedgeBody(t testing.TB) string {
	t.Helper()
	req := wire.GeocodeRequest{Query: "anything", Limit: 1}
	req.SetConsistency(&wire.ReadConsistency{Marks: []wire.SessionMark{{Seq: 1 << 60}}})
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// wedge occupies n admission slots (or queue positions) with parked
// requests and returns a release func. It waits until the server actually
// holds them before returning, so the saturation is not racy.
func wedge(t *testing.T, srv *Server, url string, n int, inFlight, waiting int64) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	body := wedgeBody(t)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/geocode", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Content-Type", "application/json")
			res, err := http.DefaultClient.Do(req)
			if err == nil {
				res.Body.Close()
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.AdmissionStats()
		if st.InFlight >= inFlight && st.Waiting >= waiting {
			break
		}
		if time.Now().After(deadline) {
			cancel()
			wg.Wait()
			t.Fatalf("saturation never reached: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// TestHTTPShedUnderBurst is the tentpole's server-side promise: with every
// slot and queue position held by slow requests, the next arrival is
// refused immediately — a complete, well-formed 429 with Retry-After —
// instead of waiting out the 2s queue deadline or the 30s freshness grace.
func TestHTTPShedUnderBurst(t *testing.T) {
	srv, ts := overloadServer(t, 2, 1, 2*time.Second)
	release := wedge(t, srv, ts.URL, 3, 2, 1)
	defer release()

	start := time.Now()
	res := postRaw(t, ts.URL+"/geocode", `{"query":"3rd Street","limit":1}`, nil)
	defer res.Body.Close()
	elapsed := time.Since(start)

	if res.StatusCode != wire.StatusOverloaded {
		t.Fatalf("status %d while saturated, want %d", res.StatusCode, wire.StatusOverloaded)
	}
	// The shed must not have queued: far under the 2s queue deadline (the
	// implementation answers in microseconds; the bound only absorbs
	// scheduler noise).
	if elapsed > 250*time.Millisecond {
		t.Fatalf("shed took %v, want immediate refusal", elapsed)
	}
	if got := res.Header.Get(wire.RetryAfterHeader); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	var e wire.ErrorResponse
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil {
		t.Fatalf("shed body not JSON: %v", err)
	}
	if e.Error == "" || e.RetryAfterSeconds != 1 {
		t.Fatalf("shed body = %+v, want an error and retryAfterSeconds 1", e)
	}
	if got := srv.AdmissionStats().Shed(); got == 0 {
		t.Fatal("admission stats recorded no shed")
	}

	// Liveness endpoints stay ungated: an overloaded member must still be
	// discoverable and report healthy (it IS healthy — busy is not dead).
	for _, path := range []string{"/healthz", "/info"} {
		res, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d while saturated, want 200", path, res.StatusCode)
		}
	}
}

// TestHTTPQueueAdmitsWhenSlotFrees: a queued request is not a shed — when
// capacity returns within the queue deadline, it runs and answers 200.
func TestHTTPQueueAdmitsWhenSlotFrees(t *testing.T) {
	srv, ts := overloadServer(t, 1, 4, 5*time.Second)
	release := wedge(t, srv, ts.URL, 1, 1, 0)

	done := make(chan *http.Response, 1)
	go func() {
		done <- postRaw(t, ts.URL+"/geocode", `{"query":"3rd Street","limit":1}`, nil)
	}()
	// Let the probe reach the queue, then free the slot.
	deadline := time.Now().Add(5 * time.Second)
	for srv.AdmissionStats().Waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("probe never queued")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	res := <-done
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("queued request answered %d after slot freed, want 200", res.StatusCode)
	}
}

// TestHTTPOversizePostRejected413 pins the body-cap regression: a multi-MB
// POST is cut off at the cap (bounded memory — MaxBytesReader stops
// reading at limit+1) and refused with 413.
func TestHTTPOversizePostRejected413(t *testing.T) {
	srv, err := New(Config{Name: "city", Map: cityMap()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// 2 MiB of valid JSON against the 1 MiB default single-query cap.
	huge := `{"query":"` + strings.Repeat("x", 2<<20) + `"}`
	res := postRaw(t, ts.URL+"/geocode", huge, nil)
	defer res.Body.Close()
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2MiB POST answered %d, want 413", res.StatusCode)
	}
	var e wire.ErrorResponse
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "byte limit") {
		t.Fatalf("413 body = %+v, %v", e, err)
	}

	res3 := postRaw(t, ts.URL+"/geocode", `{"query":"3rd Street","limit":1}`, nil)
	defer res3.Body.Close()
	if res3.StatusCode != http.StatusOK {
		t.Fatalf("under-cap POST answered %d, want 200", res3.StatusCode)
	}
}

// TestCancelledContextSkipsCompute: once the caller is gone, the expensive
// stage never starts — the query cache path returns without calling
// compute at all.
func TestCancelledContextSkipsCompute(t *testing.T) {
	srv := cachedCityServer(t, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	resp := cachedQuery(ctx, srv, srv.store.View(), wire.SvcGeocode, wire.GeocodeRequest{Query: "x"},
		func(*store.View, wire.GeocodeRequest) wire.GeocodeResponse {
			called = true
			return wire.GeocodeResponse{}
		})
	if called {
		t.Fatal("compute ran for a cancelled context")
	}
	if len(resp.Results) != 0 {
		t.Fatalf("cancelled query returned results: %+v", resp)
	}
}

// TestCancelledFreshnessWaitAnswers503Not412: a request whose client gave
// up mid-WaitFresh is CANCELLED, not stale — 412 would teach the client's
// session layer a false staleness verdict.
func TestCancelledFreshnessWaitAnswers503Not412(t *testing.T) {
	city := cityMap()
	srv, err := New(Config{Name: "city", Map: city, ConsistencyWait: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/geocode", strings.NewReader(wedgeBody(t))).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled freshness wait answered %d, want 503 (and never 412)", rec.Code)
	}
}

// TestHTTPShedHammer mixes sheds with normal traffic under -race: one of
// two slots wedged, 16 clients hammering the other. Every response must be
// a complete 200 or 429 — nothing hangs, nothing panics, and the admission
// counters reconcile.
func TestHTTPShedHammer(t *testing.T) {
	srv, ts := overloadServer(t, 2, 2, time.Millisecond)
	release := wedge(t, srv, ts.URL, 1, 1, 0)
	defer release()

	const workers, perWorker = 16, 30
	var ok, shed, other atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				body := fmt.Sprintf(`{"query":"3rd Street","limit":%d}`, i%3+1)
				res, err := http.Post(ts.URL+"/geocode", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				_, _ = io.Copy(io.Discard, res.Body)
				res.Body.Close()
				switch res.StatusCode {
				case http.StatusOK:
					ok.Add(1)
				case wire.StatusOverloaded:
					shed.Add(1)
				default:
					other.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("hammer saw %d responses that were neither 200 nor 429", other.Load())
	}
	if ok.Load() == 0 || shed.Load() == 0 {
		t.Fatalf("hammer did not mix outcomes: ok=%d shed=%d", ok.Load(), shed.Load())
	}
	if got := ok.Load() + shed.Load(); got != workers*perWorker {
		t.Fatalf("responses %d != requests %d", got, workers*perWorker)
	}
	st := srv.AdmissionStats()
	if st.Shed() < shed.Load() {
		t.Fatalf("admission stats %d sheds < %d observed by clients", st.Shed(), shed.Load())
	}
}
