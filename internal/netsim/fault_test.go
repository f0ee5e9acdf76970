package netsim

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// modes drains n requests from the schedule and returns the mode sequence.
func modes(s *FaultSchedule, n int) []FaultMode {
	out := make([]FaultMode, n)
	for i := range out {
		out[i] = s.take().Mode
	}
	return out
}

func wantModes(t *testing.T, got, want []FaultMode) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d: mode %v, want %v (full: %v)", i+1, got[i], want[i], got)
		}
	}
}

func TestFailFirstSchedule(t *testing.T) {
	s := FailFirst(2, 503)
	wantModes(t, modes(s, 4), []FaultMode{FaultError, FaultError, FaultNone, FaultNone})
	if s.Requests() != 4 || s.Faulted() != 2 {
		t.Fatalf("requests=%d faulted=%d, want 4/2", s.Requests(), s.Faulted())
	}
}

func TestFlapScheduleLoops(t *testing.T) {
	s := NewFaultSchedule(
		FaultPhase{Mode: FaultNone, Requests: 2},
		FaultPhase{Mode: FaultBlackhole, Requests: 1},
	).Loop()
	want := []FaultMode{
		FaultNone, FaultNone, FaultBlackhole,
		FaultNone, FaultNone, FaultBlackhole,
		FaultNone,
	}
	wantModes(t, modes(s, len(want)), want)
}

func TestAlwaysFailAndHealthy(t *testing.T) {
	wantModes(t, modes(AlwaysFail(0), 3), []FaultMode{FaultError, FaultError, FaultError})
	wantModes(t, modes(NewFaultSchedule(), 3), []FaultMode{FaultNone, FaultNone, FaultNone})
}

func TestWrapInjectsErrorStatus(t *testing.T) {
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "real")
	})
	ts := httptest.NewServer(FailFirst(1, 503).Wrap(backend))
	defer ts.Close()

	res, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 503 {
		t.Fatalf("first request status = %d, want 503", res.StatusCode)
	}
	if string(body) != `{"error":"netsim: injected status 503"}` {
		t.Fatalf("fault body = %q", body)
	}

	res, err = http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 200 || string(body) != "real" {
		t.Fatalf("second request = %d %q, want the real backend", res.StatusCode, body)
	}
}

func TestWrapBlackholeReleasesOnClientDisconnect(t *testing.T) {
	reached := make(chan struct{}, 1)
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached <- struct{}{}
	})
	entered := make(chan struct{})
	handlerDone := make(chan struct{})
	wrapped := Blackhole().Wrap(backend)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		wrapped.ServeHTTP(w, r)
		close(handlerDone)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	errCh := make(chan error, 1)
	go func() {
		res, err := http.DefaultClient.Do(req)
		if err == nil {
			res.Body.Close()
		}
		errCh <- err
	}()
	<-entered // only cancel once the request is being blackholed
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("blackholed request returned a response")
	}
	// The handler must unwind once the client is gone (ctx-aware hold).
	select {
	case <-handlerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("blackholed handler never released after client disconnect")
	}
	select {
	case <-reached:
		t.Fatal("blackholed request reached the backend")
	default:
	}
}

func TestWrapSlowPassesThrough(t *testing.T) {
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "slow but real")
	})
	slow := NewFaultSchedule(FaultPhase{Mode: FaultSlow, Requests: 1, Delay: time.Millisecond})
	ts := httptest.NewServer(slow.Wrap(backend))
	defer ts.Close()
	res, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if string(body) != "slow but real" {
		t.Fatalf("slow request body = %q", body)
	}
}
