package client_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"openflame/internal/core"
	"openflame/internal/geo"
	"openflame/internal/netsim"
	"openflame/internal/resilience"
	"openflame/internal/s2cell"
	"openflame/internal/wire"
)

// The resilience layer is verified end to end through deterministic
// netsim fault schedules wired between the client and map-server doubles:
// schedules advance on request count, so the Nth request always sees the
// same fault regardless of timing, and every assertion is on counters and
// results — no sleeps as synchronization.

// faultyFederation stands up n map-server doubles, each behind its own
// fault schedule (nil = healthy), all announced on the cell covering pos.
func faultyFederation(t testing.TB, schedules []*netsim.FaultSchedule) (*core.Federation, geo.LatLng, []*delayedServer, []string) {
	t.Helper()
	fed, err := core.NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	pos := geo.LatLng{Lat: 40.4433, Lng: -79.9436}
	token := s2cell.FromLatLng(pos).Parent(16).Token()
	doubles := make([]*delayedServer, len(schedules))
	urls := make([]string, len(schedules))
	for i, sched := range schedules {
		d := &delayedServer{name: fmt.Sprintf("srv-%02d", i), pos: pos}
		var handler http.Handler = d
		if sched != nil {
			handler = sched.Wrap(d)
		}
		ts := httptest.NewServer(handler)
		t.Cleanup(ts.Close)
		doubles[i] = d
		urls[i] = ts.URL
		if err := fed.Registry.Register(wire.Info{
			Name: d.name, Coverage: []string{token}, Services: []wire.Service{wire.SvcSearch},
		}, ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	return fed, pos, doubles, urls
}

// fakeClock drives breaker cooldowns without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestRetryRecoversTransientServerError: the member 503s once, the retry
// policy re-attempts, and its result still lands in the merge.
func TestRetryRecoversTransientServerError(t *testing.T) {
	sched := netsim.FailFirst(1, 503)
	fed, pos, _, _ := faultyFederation(t, []*netsim.FaultSchedule{sched})
	c := fed.NewClient()
	c.SearchRadiusMeters = 100
	c.Resilience = resilience.NewTracker(resilience.Policy{
		Retry: resilience.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
	})

	results := c.SearchV2(context.Background(), "hit", pos, 10)
	if len(results) != 1 || results[0].Source != "srv-00" {
		t.Fatalf("retry did not recover the transient 503: %v", results)
	}
	if got := sched.Requests(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (original + retry)", got)
	}
}

// TestTransientErrorNotRetriedWithoutPolicy pins the default: no retry
// knobs, one attempt, the failed member is simply skipped (PR 1 behavior).
func TestTransientErrorNotRetriedWithoutPolicy(t *testing.T) {
	sched := netsim.FailFirst(1, 503)
	fed, pos, _, _ := faultyFederation(t, []*netsim.FaultSchedule{sched})
	c := fed.NewClient()
	c.SearchRadiusMeters = 100

	if results := c.SearchV2(context.Background(), "hit", pos, 10); len(results) != 0 {
		t.Fatalf("unexpected results from a failed member: %v", results)
	}
	if got := sched.Requests(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (no retries configured)", got)
	}
}

// TestRetryBudgetCapsFanoutRetries: two members each failing twice, but a
// request-wide budget of one retry — total attempts stay bounded.
func TestRetryBudgetCapsFanoutRetries(t *testing.T) {
	s0 := netsim.AlwaysFail(503)
	s1 := netsim.AlwaysFail(503)
	fed, pos, _, _ := faultyFederation(t, []*netsim.FaultSchedule{s0, s1})
	c := fed.NewClient()
	c.SearchRadiusMeters = 100
	c.MaxConcurrency = 1 // deterministic: servers visited in discovery order
	c.Resilience = resilience.NewTracker(resilience.Policy{
		Retry: resilience.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, Budget: 1},
	})

	_ = c.SearchV2(context.Background(), "hit", pos, 10)
	total := s0.Requests() + s1.Requests()
	// 2 first attempts + exactly 1 budgeted retry.
	if total != 3 {
		t.Fatalf("fan-out issued %d attempts (srv0=%d srv1=%d), want 3", total, s0.Requests(), s1.Requests())
	}
}

// TestBreakerStopsContactingPersistentFailure: after BreakerThreshold
// consecutive failures the member is excluded from fan-out before any
// HTTP; after the cooldown a half-open probe restores it.
func TestBreakerStopsContactingPersistentFailure(t *testing.T) {
	// Fails its first 2 requests, healthy afterwards — but the breaker
	// only lets the recovery be seen via the probe after the cooldown.
	sched := netsim.FailFirst(2, 503)
	fed, pos, _, urls := faultyFederation(t, []*netsim.FaultSchedule{sched, nil})
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tr := resilience.NewTracker(resilience.Policy{BreakerThreshold: 2, BreakerCooldown: time.Minute})
	tr.Now = clk.Now

	c := fed.NewClient()
	c.SearchRadiusMeters = 100
	c.Resilience = tr

	// Searches 1 and 2 each hit the faulty member once and fail; the
	// breaker trips at the threshold.
	for i := 0; i < 2; i++ {
		if results := c.SearchV2(context.Background(), "hit", pos, 10); len(results) != 1 || results[0].Source != "srv-01" {
			t.Fatalf("search %d: want only the healthy member's result, got %v", i+1, results)
		}
	}
	if st := tr.Health(urls[0]).State; st != resilience.StateOpen {
		t.Fatalf("breaker state after %d failures = %v, want open", 2, st)
	}

	// Searches 3..5: the open member must not be contacted at all.
	for i := 0; i < 3; i++ {
		_ = c.SearchV2(context.Background(), "hit", pos, 10)
	}
	if got := sched.Requests(); got != 2 {
		t.Fatalf("open member saw %d requests, want 2 (excluded from fan-out while open)", got)
	}

	// After the cooldown, one half-open probe goes through, succeeds
	// (the schedule recovered), and the member rejoins the merge.
	clk.Advance(time.Minute)
	results := c.SearchV2(context.Background(), "hit", pos, 10)
	srcs := map[string]bool{}
	for _, r := range results {
		srcs[r.Source] = true
	}
	if !srcs["srv-00"] || !srcs["srv-01"] {
		t.Fatalf("recovered member missing from the merge: %v", srcs)
	}
	if st := tr.Health(urls[0]).State; st != resilience.StateClosed {
		t.Fatalf("breaker state after successful probe = %v, want closed", st)
	}
	if got := sched.Requests(); got != 3 {
		t.Fatalf("recovered member saw %d requests, want 3 (2 failures + 1 probe)", got)
	}
}

// TestHedgingDiscardsStragglerWithoutLeak: the member blackholes the first
// request; the hedge spawned after HedgeAfter wins with the second, the
// straggler is cancelled, and no goroutine outlives the call.
func TestHedgingDiscardsStragglerWithoutLeak(t *testing.T) {
	// Request 1 (the warm-up search) is healthy, request 2 (the hedged
	// search's primary) blackholes, everything after passes through.
	sched := netsim.NewFaultSchedule(
		netsim.FaultPhase{Mode: netsim.FaultNone, Requests: 1},
		netsim.FaultPhase{Mode: netsim.FaultBlackhole, Requests: 1},
	)
	fed, pos, _, _ := faultyFederation(t, []*netsim.FaultSchedule{sched})
	c := fed.NewClient()
	c.SearchRadiusMeters = 100
	// Generous enough that the healthy warm-up below never spawns an
	// unplanned hedge on a loaded runner (which would shift the schedule).
	c.Resilience = resilience.NewTracker(resilience.Policy{HedgeAfter: 50 * time.Millisecond})

	// Warm discovery and the HTTP connection pool so the goroutine
	// baseline already includes a keep-alive connection; the hedged
	// fan-out below must not add to it.
	if results := c.SearchV2(context.Background(), "hit", pos, 10); len(results) != 1 {
		t.Fatalf("warm-up search failed: %v", results)
	}
	before := runtime.NumGoroutine()

	results := c.SearchV2(context.Background(), "hit", pos, 10)
	if len(results) != 1 || results[0].Source != "srv-00" {
		t.Fatalf("hedge did not win over the blackholed primary: %v", results)
	}
	if got := sched.Requests(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (warm-up + primary + hedge)", got)
	}

	// The straggler (blackholed handler + hedging goroutine) must unwind
	// once the winner's cancellation propagates.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d now vs baseline %d", runtime.NumGoroutine(), before)
}

// TestCancellationNotCountedAgainstServerHealth pins the classification
// fix: a caller abandoning the request must not look like server failures
// (it used to be indistinguishable — every error was treated identically).
func TestCancellationNotCountedAgainstServerHealth(t *testing.T) {
	fed, pos, doubles, urls := faultyFederation(t, []*netsim.FaultSchedule{nil, nil})
	for _, d := range doubles {
		d.delay = 10 * time.Second // both members still sleeping when we cancel
	}
	tr := resilience.NewTracker(resilience.Policy{BreakerThreshold: 1})
	c := fed.NewClient()
	c.SearchRadiusMeters = 100
	c.Resilience = tr
	if anns := c.DiscoverV2(context.Background(), pos); len(anns) != 2 {
		t.Fatalf("discovered %d servers, want 2", len(anns))
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel once both handlers are actually in flight.
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			var inflight int64
			for _, d := range doubles {
				inflight += d.inflight.Load()
			}
			if inflight == 2 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	_ = c.SearchV2(ctx, "hit", pos, 10)

	for _, url := range urls {
		h := tr.Health(url)
		if h.ConsecutiveFailures != 0 || h.Failures != 0 || h.State != resilience.StateClosed {
			t.Fatalf("caller cancellation charged against %s: %+v", url, h)
		}
	}
}

// TestServerErrorsAndTimeoutsCountAgainstHealth is the other half of the
// distinction: a 5xx and a per-server timeout are the server's fault.
func TestServerErrorsAndTimeoutsCountAgainstHealth(t *testing.T) {
	s503 := netsim.AlwaysFail(503)
	shang := netsim.Blackhole()
	fed, pos, _, urls := faultyFederation(t, []*netsim.FaultSchedule{s503, shang})
	tr := resilience.NewTracker(resilience.Policy{BreakerThreshold: 1})
	c := fed.NewClient()
	c.SearchRadiusMeters = 100
	c.Resilience = tr
	c.PerServerTimeout = 50 * time.Millisecond

	_ = c.SearchV2(context.Background(), "hit", pos, 10)

	for i, url := range urls {
		h := tr.Health(url)
		if h.Failures == 0 || h.State != resilience.StateOpen {
			t.Fatalf("server %d (%s) failure not charged: %+v", i, url, h)
		}
	}
}

// TestPermanentRefusalNotChargedToHealth: a 403 policy denial is a healthy
// server saying no — it must be skipped (no result) but never trip a
// breaker or be retried.
func TestPermanentRefusalNotChargedToHealth(t *testing.T) {
	sched := netsim.AlwaysFail(403)
	fed, pos, _, urls := faultyFederation(t, []*netsim.FaultSchedule{sched})
	tr := resilience.NewTracker(resilience.Policy{
		Retry:            resilience.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
		BreakerThreshold: 1,
	})
	c := fed.NewClient()
	c.SearchRadiusMeters = 100
	c.Resilience = tr

	if results := c.SearchV2(context.Background(), "hit", pos, 10); len(results) != 0 {
		t.Fatalf("refused request produced results: %v", results)
	}
	if got := sched.Requests(); got != 1 {
		t.Fatalf("refusal was retried: %d requests", got)
	}
	h := tr.Health(urls[0])
	if h.ConsecutiveFailures != 0 || h.State != resilience.StateClosed {
		t.Fatalf("refusal charged against health: %+v", h)
	}
}
