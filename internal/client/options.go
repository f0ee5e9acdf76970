package client

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"openflame/internal/resilience"
	"openflame/internal/wire"
)

// This file is the API's option surface: every service has ONE ctx-first
// method (SearchV2, GeocodeV2, ReverseGeocodeV2, LocalizeV2, RouteV2,
// DiscoverV2, InfoV2, TilePNGV2) taking variadic CallOptions. Options are
// scoped to the call: they override the client-level knobs without mutating
// the shared Client.

// Consistency selects the read-consistency contract of a v2 call.
type Consistency int

const (
	// ConsistencyEventual is the default: any discovered replica may
	// answer, with no ordering relation between successive reads.
	ConsistencyEventual Consistency = iota
	// ConsistencySession threads a session token through the call: every
	// answer returns the replica's high-water mark, every later sessioned
	// read refuses to be served by a replica that has not caught up to the
	// marks already observed (wire.StatusStaleReplica → failover to a
	// sibling) — monotonic reads and read-your-writes across replica
	// failover. Uses the client's shared session unless WithSession names
	// one.
	ConsistencySession
)

// Session is a consistency token: the high-water marks a sequence of
// reads has observed, keyed by plan-group key (the replica-set id, or the
// synthetic singleton key of a solo server) and, within a group, by the
// ORIGIN that minted each mark. Keeping one mark per origin — rather than
// one per group — makes concurrent reads race-free: two reads answered by
// different members merely fill different slots, and every later read
// requires the server to vouch for ALL of them, so nothing a session has
// observed can be read back out of existence. Distinct sessions are
// causally independent; one session's reads are monotonic. Safe for
// concurrent use.
type Session struct {
	mu    sync.Mutex
	marks map[string]map[string]wire.SessionMark // group key → origin → mark
}

// NewSession creates an empty session.
func NewSession() *Session {
	return &Session{marks: make(map[string]map[string]wire.SessionMark)}
}

// marksFor returns the session's marks for a plan-group key, sorted by
// origin so envelopes are deterministic (nil before the first read).
func (s *Session) marksFor(key string) []wire.SessionMark {
	s.mu.Lock()
	defer s.mu.Unlock()
	byOrigin := s.marks[key]
	if len(byOrigin) == 0 {
		return nil
	}
	out := make([]wire.SessionMark, 0, len(byOrigin))
	for _, m := range byOrigin {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Origin < out[j].Origin })
	return out
}

// observe merges a mark returned by a group's answering replica into the
// origin's slot: within one log incarnation the mark advances
// monotonically; a NEW incarnation replaces the old mark outright — a
// restarted origin's previous log can never be vouched for again, and
// pinning it would make the whole group permanently unservable for this
// session.
func (s *Session) observe(key string, m wire.SessionMark) {
	if m.Origin == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	byOrigin := s.marks[key]
	if byOrigin == nil {
		byOrigin = make(map[string]wire.SessionMark, 1)
		s.marks[key] = byOrigin
	}
	cur, ok := byOrigin[m.Origin]
	if ok && cur.Log == m.Log && m.Seq <= cur.Seq {
		return
	}
	byOrigin[m.Origin] = m
}

// healRestartedOrigin handles a stale-replica refusal that carried the
// refuser's current mark: when the refuser IS the origin of a mark this
// session holds and its log incarnation differs, the held incarnation is
// dead — no member can ever vouch for it again (the origin refuses it by
// incarnation, siblings' sync positions re-key on their next pull) — and
// pinning it would make the group permanently unservable. The slot is
// replaced with the origin's current mark: the dead incarnation's
// unsynced writes are genuinely lost, and the replacement still demands
// the new incarnation's observed head, so nothing recoverable is
// forfeited. Marks from live incarnations (a merely-lagging refuser) are
// left strictly alone.
func (s *Session) healRestartedOrigin(key string, current wire.SessionMark) {
	if current.Origin == "" || current.Log == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	byOrigin := s.marks[key]
	cur, ok := byOrigin[current.Origin]
	if !ok || cur.Log == 0 || cur.Log == current.Log {
		return
	}
	byOrigin[current.Origin] = current
}

// Marks returns a copy of the session's current marks per group, sorted
// by origin (diagnostics and tests).
func (s *Session) Marks() map[string][]wire.SessionMark {
	s.mu.Lock()
	keys := make([]string, 0, len(s.marks))
	for k := range s.marks {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	out := make(map[string][]wire.SessionMark, len(keys))
	for _, k := range keys {
		out[k] = s.marksFor(k)
	}
	return out
}

// CallOption tunes one v2 call.
type CallOption func(*callOpts)

// callOpts is the resolved per-call configuration. The zero value
// reproduces the client-level knobs exactly.
type callOpts struct {
	maxServers  int
	timeout     time.Duration
	timeoutSet  bool
	consistency Consistency
	session     *Session
}

// WithMaxServers bounds how many replica groups of the plan may answer
// (0 = all) — the E6 recall-vs-fanout knob, previously the FooFanout
// variants' extra parameter.
func WithMaxServers(n int) CallOption {
	return func(o *callOpts) { o.maxServers = n }
}

// WithTimeout overrides the client's PerServerTimeout for this call
// (0 removes the cap). Like the client knob it budgets each individual
// server attempt, retries and hedges included, not the whole fan-out.
func WithTimeout(d time.Duration) CallOption {
	return func(o *callOpts) { o.timeout, o.timeoutSet = d, true }
}

// WithConsistency selects the call's read-consistency contract.
// WithConsistency(ConsistencySession) uses the client's shared session.
func WithConsistency(level Consistency) CallOption {
	return func(o *callOpts) { o.consistency = level }
}

// WithSession runs the call inside an explicit session (implies
// ConsistencySession). Callers serving several independent users from one
// Client give each their own NewSession.
func WithSession(s *Session) CallOption {
	return func(o *callOpts) {
		o.session = s
		o.consistency = ConsistencySession
	}
}

// Session returns the client's shared session — the one
// WithConsistency(ConsistencySession) threads through calls when no
// explicit WithSession is given.
func (c *Client) Session() *Session {
	c.sessOnce.Do(func() { c.sess = NewSession() })
	return c.sess
}

// resolveOpts folds the options into the per-call configuration. The
// consistency LEVEL decides whether a session is in play (last option
// wins): WithConsistency(ConsistencyEventual) after WithSession opts the
// call back out, and ConsistencySession without an explicit session binds
// the client's shared one.
func (c *Client) resolveOpts(opts []CallOption) *callOpts {
	o := &callOpts{}
	for _, f := range opts {
		if f != nil {
			f(o)
		}
	}
	if o.consistency != ConsistencySession {
		o.session = nil
	} else if o.session == nil {
		o.session = c.Session()
	}
	return o
}

// callOptsKey carries the resolved options down the call tree — the plan
// and transport layers read them from the context instead of
// growing an options parameter on every internal signature.
type callOptsKey struct{}

// withCallOpts resolves opts and scopes them to the returned context.
func (c *Client) withCallOpts(ctx context.Context, opts []CallOption) context.Context {
	return context.WithValue(ctx, callOptsKey{}, c.resolveOpts(opts))
}

// callOptsFrom returns the call's resolved options (nil outside a v2
// call — e.g. a test driving an internal helper directly).
func callOptsFrom(ctx context.Context) *callOpts {
	o, _ := ctx.Value(callOptsKey{}).(*callOpts)
	return o
}

// sessionFrom returns the call's session (nil for eventual reads).
func sessionFrom(ctx context.Context) *Session {
	if o := callOptsFrom(ctx); o != nil {
		return o.session
	}
	return nil
}

// consistencyFor builds the request envelope for one plan-group key, nil
// when the call is not sessioned. An empty envelope (first read of the
// group) imposes nothing but still asks the server for its mark.
func consistencyFor(ctx context.Context, key string) *wire.ReadConsistency {
	sess := sessionFrom(ctx)
	if sess == nil {
		return nil
	}
	return &wire.ReadConsistency{Marks: sess.marksFor(key)}
}

// observeSession records the mark a sessioned response carried (no-op for
// eventual reads and mark-less responses).
func observeSession(ctx context.Context, key string, resp interface{}) {
	sess := sessionFrom(ctx)
	if sess == nil {
		return
	}
	if sg, ok := resp.(wire.SessionCarrier); ok {
		if m := sg.GetSession(); m != nil {
			sess.observe(key, *m)
		}
	}
}

// callKeyed is call with session bookkeeping for one plan-group key: the
// group's marks ride out in the request envelope, the replica's updated
// mark is recorded into its origin slot from the response. The transport
// path itself is untouched — an un-sessioned callKeyed is exactly call.
func (c *Client) callKeyed(ctx context.Context, key, baseURL, path string, req, resp interface{}) error {
	if rc := consistencyFor(ctx, key); rc != nil {
		if cc, ok := req.(wire.ConsistencyCarrier); ok {
			cc.SetConsistency(rc)
		}
	}
	err := c.call(ctx, baseURL, path, req, resp)
	if err == nil {
		observeSession(ctx, key, resp)
	} else if sess := sessionFrom(ctx); sess != nil {
		var he *resilience.HTTPError
		if errors.As(err, &he) && he.StatusCode == wire.StatusStaleReplica && he.Session != nil {
			sess.healRestartedOrigin(key, *he.Session)
		}
	}
	return err
}
