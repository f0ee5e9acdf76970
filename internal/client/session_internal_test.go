package client

import (
	"context"
	"testing"
	"time"

	"openflame/internal/wire"
)

// TestSessionObserve pins the mark-merge rule: one slot per (group,
// origin) — same-incarnation marks advance monotonically, a new log
// incarnation replaces its origin's slot, distinct origins coexist (so
// concurrent reads answered by different members can never discard each
// other's observations), and groups are independent.
func TestSessionObserve(t *testing.T) {
	s := NewSession()
	s.observe("city", wire.SessionMark{Origin: "a", Log: 1, Seq: 5})
	s.observe("city", wire.SessionMark{Origin: "a", Log: 1, Seq: 3}) // stale echo: ignored
	if ms := s.marksFor("city"); len(ms) != 1 || ms[0].Seq != 5 {
		t.Fatalf("marks = %+v", ms)
	}
	s.observe("city", wire.SessionMark{Origin: "a", Log: 1, Seq: 8})
	if ms := s.marksFor("city"); len(ms) != 1 || ms[0].Seq != 8 {
		t.Fatalf("marks = %+v", ms)
	}
	// A second origin fills its own slot; both marks are now required.
	s.observe("city", wire.SessionMark{Origin: "b", Log: 7, Seq: 2})
	ms := s.marksFor("city")
	if len(ms) != 2 || ms[0].Origin != "a" || ms[0].Seq != 8 || ms[1].Origin != "b" || ms[1].Seq != 2 {
		t.Fatalf("marks = %+v, want a@8 and b@2", ms)
	}
	// Concurrent-read interleaving cannot lose observations: whatever
	// order a@9 and b@20 land in, both survive.
	s.observe("city", wire.SessionMark{Origin: "b", Log: 7, Seq: 20})
	s.observe("city", wire.SessionMark{Origin: "a", Log: 1, Seq: 9})
	ms = s.marksFor("city")
	if len(ms) != 2 || ms[0].Seq != 9 || ms[1].Seq != 20 {
		t.Fatalf("marks = %+v, want a@9 and b@20", ms)
	}
	// A restarted origin (new incarnation) replaces its slot — even
	// downward: the old log can never be vouched for again.
	s.observe("city", wire.SessionMark{Origin: "a", Log: 2, Seq: 1})
	ms = s.marksFor("city")
	if len(ms) != 2 || ms[0].Log != 2 || ms[0].Seq != 1 {
		t.Fatalf("marks after restart = %+v, want a(log2)@1", ms)
	}
	if ms := s.marksFor("campus"); ms != nil {
		t.Fatalf("unrelated group marks = %+v", ms)
	}
}

// TestCallOptsPlumbing: options resolve into the context and the derived
// helpers read them back; defaults reproduce the client-level knobs.
func TestCallOptsPlumbing(t *testing.T) {
	c := New(nil, nil)
	ctx := c.withCallOpts(context.Background(), nil)
	if sessionFrom(ctx) != nil {
		t.Fatal("default call carries a session")
	}
	ctx = c.withCallOpts(context.Background(), []CallOption{WithConsistency(ConsistencySession)})
	if sessionFrom(ctx) != c.Session() {
		t.Fatal("session consistency did not bind the client's shared session")
	}
	own := NewSession()
	ctx = c.withCallOpts(context.Background(), []CallOption{WithSession(own)})
	if sessionFrom(ctx) != own {
		t.Fatal("explicit session lost")
	}
	// Last option wins: an explicit eventual level opts back out of an
	// earlier session.
	evctx := c.withCallOpts(context.Background(), []CallOption{
		WithSession(own), WithConsistency(ConsistencyEventual)})
	if sessionFrom(evctx) != nil {
		t.Fatal("WithConsistency(ConsistencyEventual) did not override WithSession")
	}
	// consistencyFor: empty envelope before the first read, the marks
	// after.
	if rc := consistencyFor(ctx, "city"); rc == nil || len(rc.Marks) != 0 {
		t.Fatalf("first-read envelope = %+v", rc)
	}
	own.observe("city", wire.SessionMark{Origin: "a", Seq: 4})
	rc := consistencyFor(ctx, "city")
	if rc == nil || len(rc.Marks) != 1 || rc.Marks[0].Origin != "a" || rc.Marks[0].Seq != 4 {
		t.Fatalf("envelope = %+v", rc)
	}
	// Timeout override.
	c.PerServerTimeout = time.Minute
	ctx = c.withCallOpts(context.Background(), []CallOption{WithTimeout(time.Millisecond)})
	sctx, cancel := c.perServerCtx(ctx)
	defer cancel()
	dl, ok := sctx.Deadline()
	if !ok || time.Until(dl) > 10*time.Millisecond {
		t.Fatalf("WithTimeout override lost (deadline %v)", dl)
	}
	// WithTimeout(0) removes the client-level cap for the call.
	ctx = c.withCallOpts(context.Background(), []CallOption{WithTimeout(0)})
	sctx, cancel2 := c.perServerCtx(ctx)
	defer cancel2()
	if _, ok := sctx.Deadline(); ok {
		t.Fatal("WithTimeout(0) did not lift the per-server cap")
	}
}
