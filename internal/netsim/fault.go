package netsim

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// FaultMode enumerates the failure behaviours the injector can impose on a
// federation member.
type FaultMode int

const (
	// FaultNone passes the request through untouched.
	FaultNone FaultMode = iota
	// FaultError answers with an HTTP error status without reaching the
	// server (a crashed or overloaded member).
	FaultError
	// FaultBlackhole swallows the request until the client gives up (a
	// hung member or a partitioned link) — the tail-latency case hedging
	// and per-server timeouts exist for.
	FaultBlackhole
	// FaultSlow delays the request, then passes it through (a degraded
	// member).
	FaultSlow
)

func (m FaultMode) String() string {
	switch m {
	case FaultNone:
		return "none"
	case FaultError:
		return "error"
	case FaultBlackhole:
		return "blackhole"
	case FaultSlow:
		return "slow"
	}
	return fmt.Sprintf("FaultMode(%d)", int(m))
}

// FaultPhase is one step of a scripted failure schedule. Phases advance on
// request count, not wall time, so a schedule is deterministic: the Nth
// request always sees the same behaviour regardless of machine speed.
type FaultPhase struct {
	Mode FaultMode
	// Requests is how many requests this phase consumes; <= 0 means the
	// phase lasts forever (every remaining request).
	Requests int
	// Status is the FaultError response code (default 503).
	Status int
	// Delay is the FaultSlow added latency.
	Delay time.Duration
}

// FaultSchedule scripts a server's failure behaviour request by request.
// Wrap interposes it between the client and a server handler; tests and
// experiments build schedules with the helper constructors (AlwaysFail,
// FailFirst, Blackhole) or literal phases.
// Safe for concurrent use.
type FaultSchedule struct {
	mu       sync.Mutex
	phases   []FaultPhase
	loop     bool
	idx      int
	inPhase  int
	requests int64
	faulted  int64
}

// NewFaultSchedule builds a schedule from phases, consumed in order; after
// the last phase requests pass through (append an unbounded phase or call
// Loop for other tails).
func NewFaultSchedule(phases ...FaultPhase) *FaultSchedule {
	return &FaultSchedule{phases: phases}
}

// Loop makes the schedule cycle through its phases forever — the flapping
// member pattern. Returns the schedule for chaining.
func (s *FaultSchedule) Loop() *FaultSchedule {
	s.mu.Lock()
	s.loop = true
	s.mu.Unlock()
	return s
}

// Requests returns how many requests the schedule has seen.
func (s *FaultSchedule) Requests() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests
}

// Faulted returns how many of them had a fault injected.
func (s *FaultSchedule) Faulted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faulted
}

// take consumes one request from the script and returns the behaviour it
// should receive.
func (s *FaultSchedule) take() FaultPhase {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	var ph FaultPhase
	for s.idx < len(s.phases) {
		p := s.phases[s.idx]
		if p.Requests <= 0 || s.inPhase < p.Requests {
			ph = p
			s.inPhase++
			break
		}
		s.idx++
		s.inPhase = 0
		if s.idx >= len(s.phases) && s.loop {
			s.idx = 0
		}
	}
	if ph.Mode != FaultNone {
		s.faulted++
	}
	return ph
}

// Wrap interposes the schedule between a client and a server handler: each
// incoming request consumes one step of the script and is served, delayed,
// failed, or blackholed accordingly. Blackholed and slowed requests honor
// the request context, so a client that gives up frees the handler.
func (s *FaultSchedule) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ph := s.take()
		switch ph.Mode {
		case FaultError:
			// Drain the body (as the real server's readJSON does) so the
			// connection stays reusable.
			_, _ = io.Copy(io.Discard, r.Body)
			status := ph.Status
			if status == 0 {
				status = http.StatusServiceUnavailable
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			fmt.Fprintf(w, `{"error":"netsim: injected status %d"}`, status)
		case FaultBlackhole:
			_, _ = io.Copy(io.Discard, r.Body)
			<-r.Context().Done() // hold until the client disconnects
		case FaultSlow:
			t := time.NewTimer(ph.Delay)
			defer t.Stop()
			select {
			case <-t.C:
			case <-r.Context().Done():
				return
			}
			next.ServeHTTP(w, r)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// AlwaysFail returns a schedule answering every request with status (0 =
// 503) — a persistently-down member, the circuit breaker's case.
func AlwaysFail(status int) *FaultSchedule {
	return NewFaultSchedule(FaultPhase{Mode: FaultError, Status: status})
}

// FailFirst returns a schedule failing the first n requests with status
// (0 = 503) and passing the rest — a transiently-down member, the retry
// policy's case.
func FailFirst(n, status int) *FaultSchedule {
	return NewFaultSchedule(FaultPhase{Mode: FaultError, Requests: n, Status: status})
}

// Blackhole returns a schedule that swallows every request.
func Blackhole() *FaultSchedule {
	return NewFaultSchedule(FaultPhase{Mode: FaultBlackhole})
}
