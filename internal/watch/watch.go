// Package watch implements the server half of the streaming read path: a
// registry of standing queries fed by ONE change-log drain per store.
//
// Poll-based reads make every client re-ask unchanged questions; the
// caches of PR 3 make the waste cheaper, not smaller. A watch inverts the
// flow: the subscriber states its query once, and the server pushes an
// initial snapshot followed by deltas whenever the change log records a
// write inside the query's region. Coalescing is structural, not
// incidental:
//
//   - one goroutine drains the store's change log for ALL watchers (the
//     drain count is observable, and pinned by test);
//   - watchers of the same query share one group with one materialized
//     result set — a delta batch costs one evaluation per AFFECTED query,
//     not one per watcher, and the evaluation itself goes through the
//     caller-supplied Evaluator (the mapserver routes it through the
//     generation-keyed query cache, so even distinct groups of the same
//     tile coalesce);
//   - a change routes to a group only if its geometry intersects the
//     query's region (tag updates never move nodes, so the recorded
//     position is sound AND complete as a routing key).
//
// Cursor discipline: every event carries a (log incarnation, sequence)
// cursor, and every evaluation reports the sequence its answer is exact at
// (the mapserver computes it over one pinned store view), so a group's
// cursor is always exact. A subscriber resuming from a cursor the log
// still covers — same incarnation, no compacted gap, no affecting change —
// is acknowledged with a sync event; anything else (dead incarnation after
// a restart, cursor behind FirstChangeSeq, an affecting change in the
// replayed span, a group not yet re-evaluated past the log head)
// yields a fresh init snapshot instead. Over-claiming a cursor is the one
// unrecoverable sin (a silent gap); under-claiming merely costs a
// re-snapshot the client diffs away.
package watch

import (
	"context"
	"encoding/json"
	"errors"
	"sort"
	"sync"

	"openflame/internal/geo"
	"openflame/internal/search"
	"openflame/internal/wire"
)

// Change is one change-log entry as the hub sees it: a sequence number and
// the geometry needed to route it to standing queries.
type Change struct {
	Seq uint64
	Pos geo.LatLng
}

// Source is the change log a hub drains — implemented by store.Store via a
// thin adapter in the mapserver.
type Source interface {
	// LogID is the log's incarnation id (fresh per store construction).
	LogID() uint64
	// ChangeSeq is the head sequence (0 = no changes yet).
	ChangeSeq() uint64
	// ChangesSince returns retained changes with Seq > since, oldest
	// first. A leading gap (first returned Seq > since+1, or an empty
	// answer below the head) means compaction outran the cursor.
	ChangesSince(since uint64) []Change
	// Notify is the coalesced wakeup channel: a receive means the head may
	// have moved.
	Notify() <-chan struct{}
}

// Evaluator answers a standing query and reports the change-log sequence
// the answer is exact at — the mapserver passes its cached search path
// over one pinned view, so concurrent evaluations of one query coalesce
// via singleflight and repeats hit the generation-keyed cache.
type Evaluator func(ctx context.Context, req wire.SearchRequest) (wire.SearchResponse, uint64, error)

// Config assembles a Hub.
type Config struct {
	Source Source
	Eval   Evaluator
	// Mark returns the server's session mark at a change-log sequence;
	// every event carries the mark at its cursor, so watch composes with
	// read-your-writes.
	Mark func(seq uint64) wire.SessionMark
	// MaxWatchers bounds concurrent subscriptions (0 = default 1024;
	// negative = unlimited). Subscribe returns ErrOverloaded beyond it.
	MaxWatchers int
	// Buffer is the per-subscriber event queue (0 = default 32). A
	// subscriber that falls this far behind is dropped — its channel
	// closes, and it reconnects with its cursor.
	Buffer int
}

// ErrOverloaded reports that the hub's watcher bound is reached; the HTTP
// layer maps it to 429/Retry-After.
var ErrOverloaded = errors.New("watch: too many subscriptions")

// DefaultMaxWatchers bounds concurrent subscriptions when Config leaves
// MaxWatchers zero.
const DefaultMaxWatchers = 1024

const defaultBuffer = 32

// Stats is an atomic snapshot of hub counters.
type Stats struct {
	// Watchers is the current number of live subscriptions; Groups the
	// number of distinct standing queries they share.
	Watchers int
	Groups   int
	// Drains counts change-log batches processed — one per batch, however
	// many watchers exist (the coalescing pin).
	Drains uint64
	// Evals counts drain-time query evaluations (one per AFFECTED group
	// per batch); InitEvals counts subscribe-time snapshot evaluations.
	Evals     uint64
	InitEvals uint64
	// Events counts events delivered into subscriber queues; Dropped
	// counts subscribers evicted for falling behind.
	Events  uint64
	Dropped uint64
}

// group is one standing query and its shared materialized state.
type group struct {
	key   string
	query wire.SearchRequest // consistency stripped
	subs  map[*Subscriber]struct{}
	// last/order are the materialized result set (map for diffing, slice
	// in rank order for init frames); seq is the change-log position the
	// state is exact at.
	last  map[int64]search.Result
	order []search.Result
	seq   uint64
	// stale forces re-evaluation on the next drain even without a
	// matching change — set when the group materialized behind the log
	// head or its last evaluation failed.
	stale bool
}

// Subscriber is one live subscription.
type Subscriber struct {
	hub    *Hub
	group  *group
	ch     chan wire.Event
	closed bool // guarded by hub.mu
}

// Events returns the subscription's event stream. The channel closes when
// the subscriber is dropped for falling behind or Close is called.
func (s *Subscriber) Events() <-chan wire.Event { return s.ch }

// Close unregisters the subscription and closes its event channel.
func (s *Subscriber) Close() {
	h := s.hub
	h.mu.Lock()
	h.dropLocked(s)
	h.mu.Unlock()
}

// Hub is the per-store subscription registry.
type Hub struct {
	cfg Config

	mu       sync.Mutex
	groups   map[string]*group
	watchers int
	cursor   uint64 // drain position; valid while running
	running  bool
	stop     chan struct{}
	// wake runs a drain pass without a new write (buffered, coalesced):
	// a group that joined behind the log head must be checked against the
	// changes its snapshot missed.
	wake chan struct{}

	stats struct {
		drains, evals, initEvals, events, dropped uint64
	}
}

// New builds a hub over cfg (Source, Eval, and Mark are required).
func New(cfg Config) *Hub {
	if cfg.MaxWatchers == 0 {
		cfg.MaxWatchers = DefaultMaxWatchers
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = defaultBuffer
	}
	return &Hub{cfg: cfg, groups: make(map[string]*group), wake: make(chan struct{}, 1)}
}

// Stats snapshots the hub counters.
func (h *Hub) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Stats{
		Watchers:  h.watchers,
		Groups:    len(h.groups),
		Drains:    h.stats.drains,
		Evals:     h.stats.evals,
		InitEvals: h.stats.initEvals,
		Events:    h.stats.events,
		Dropped:   h.stats.dropped,
	}
}

// groupKey canonicalizes a standing query: the consistency envelope is the
// caller's session, not part of the query identity.
func groupKey(q wire.SearchRequest) (wire.SearchRequest, string) {
	q.SetConsistency(nil)
	b, err := json.Marshal(q)
	if err != nil {
		// SearchRequest is plain data; Marshal cannot fail. Keep a
		// deterministic fallback anyway.
		return q, q.Query
	}
	return q, string(b)
}

// affects reports whether a change's geometry can alter the query's result
// set. Only a circular region (Near + MaxDistanceMeters > 0) excludes
// anything: without a region every change is potentially relevant (text
// match knows no geography), and node positions are immutable under tag
// updates, so the circle test is exact.
func affects(q wire.SearchRequest, pos geo.LatLng) bool {
	if q.Near == nil || q.MaxDistanceMeters <= 0 {
		return true
	}
	return geo.DistanceMeters(*q.Near, pos) <= q.MaxDistanceMeters
}

// missed reports whether any of changes lies past g's state and can alter
// its query's result set.
func missed(g *group, changes []Change) bool {
	for _, c := range changes {
		if c.Seq > g.seq && affects(g.query, c.Pos) {
			return true
		}
	}
	return false
}

// Subscribe opens (or resumes) a subscription. The returned subscriber
// already has its first event queued: an init snapshot, or — when the
// request's cursor provably covers the current state — a bare sync.
func (h *Hub) Subscribe(ctx context.Context, req wire.SubscribeRequest) (*Subscriber, error) {
	query, key := groupKey(req.Query)

	h.mu.Lock()
	if h.cfg.MaxWatchers > 0 && h.watchers >= h.cfg.MaxWatchers {
		h.mu.Unlock()
		return nil, ErrOverloaded
	}
	// Reserve the slot while the snapshot evaluates outside the lock.
	h.watchers++

	// Materialize the group unless a subscriber already did: evaluate
	// outside the lock, then adopt whichever state is in place once it is
	// retaken (a concurrent subscriber may have materialized meanwhile).
	g := h.groups[key]
	if g == nil {
		h.mu.Unlock()
		resp, seq, err := h.cfg.Eval(ctx, query)
		h.mu.Lock()
		if err != nil {
			h.watchers--
			h.mu.Unlock()
			return nil, err
		}
		h.stats.initEvals++
		if g = h.groups[key]; g == nil {
			g = &group{key: key, query: query, subs: make(map[*Subscriber]struct{}),
				order: resp.Results, last: Materialize(resp.Results), seq: seq}
			// A group joining behind the log head missed the writes past
			// its snapshot — possibly ones a drain pass already collected
			// before the group existed. Re-check it now, before anyone may
			// sync-resume against it.
			if seq < h.cfg.Source.ChangeSeq() {
				g.stale = true
				select {
				case h.wake <- struct{}{}:
				default:
				}
			}
			h.groups[key] = g
		}
	}
	defer h.mu.Unlock()

	sub := &Subscriber{hub: h, group: g, ch: make(chan wire.Event, h.cfg.Buffer)}
	g.subs[sub] = struct{}{}

	// Resume decision: a sync acknowledgement requires the cursor's log
	// incarnation to be alive, the span (req.Seq, g.seq] to be fully
	// retained, none of it to affect this query, and the group not to be
	// stale. Anything else re-snapshots.
	ev := wire.Event{Type: wire.EventInit, Log: h.cfg.Source.LogID(), Seq: g.seq, Results: g.order}
	if h.resumableLocked(req, g) {
		ev = wire.Event{Type: wire.EventSync, Log: h.cfg.Source.LogID(), Seq: g.seq}
	}
	mark := h.cfg.Mark(g.seq)
	ev.Session = &mark
	h.sendLocked(sub, ev)

	if !h.running {
		h.startLocked(g.seq)
	}
	return sub, nil
}

// resumableLocked decides sync vs init for a resume cursor against the
// group's exact state.
func (h *Hub) resumableLocked(req wire.SubscribeRequest, g *group) bool {
	if req.Log == 0 || req.Log != h.cfg.Source.LogID() {
		return false // fresh subscription, or a dead incarnation
	}
	if g.stale {
		return false // group not yet re-checked up to the log head
	}
	if req.Seq > g.seq {
		return false // cursor from the future (restart raced); re-snapshot
	}
	if req.Seq == g.seq {
		return true
	}
	changes := h.cfg.Source.ChangesSince(req.Seq)
	if len(changes) == 0 || changes[0].Seq != req.Seq+1 {
		return false // compaction gap: the span is not fully retained
	}
	for _, c := range changes {
		if c.Seq > g.seq {
			break
		}
		if affects(g.query, c.Pos) {
			return false // the span changed this query; re-snapshot
		}
	}
	return true
}

// Materialize indexes results by node ID for diffing (shared with the
// client, which maintains the same materialized view per group).
func Materialize(results []search.Result) map[int64]search.Result {
	m := make(map[int64]search.Result, len(results))
	for _, r := range results {
		m[int64(r.NodeID)] = r
	}
	return m
}

// sendLocked queues ev on sub, evicting the subscriber if its queue is
// full (it reconnects with its cursor and diffs the re-init away).
func (h *Hub) sendLocked(sub *Subscriber, ev wire.Event) {
	if sub.closed {
		return
	}
	select {
	case sub.ch <- ev:
		h.stats.events++
	default:
		h.stats.dropped++
		h.dropLocked(sub)
	}
}

// dropLocked unregisters sub and closes its channel.
func (h *Hub) dropLocked(sub *Subscriber) {
	if sub.closed {
		return
	}
	sub.closed = true
	close(sub.ch)
	g := sub.group
	delete(g.subs, sub)
	h.watchers--
	if len(g.subs) == 0 {
		delete(h.groups, g.key)
	}
	if h.watchers == 0 && h.running {
		h.stopLocked()
	}
}

// startLocked starts the drain loop at cursor (caller holds h.mu).
func (h *Hub) startLocked(cursor uint64) {
	h.cursor = cursor
	h.running = true
	h.stop = make(chan struct{})
	go h.drain(h.stop)
}

func (h *Hub) stopLocked() {
	close(h.stop)
	h.running = false
}

// drain is the single change-log consumer: it wakes on the source's
// coalesced notify signal (or a re-check) and processes everything pending
// in one batch.
func (h *Hub) drain(stop chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-h.cfg.Source.Notify():
		case <-h.wake:
		}
		h.drainOnce(stop)
	}
}

// drainOnce processes one change-log batch: route changes to groups by
// geometry, evaluate each AFFECTED group once, diff against its
// materialized state, and broadcast the shared event to every subscriber.
func (h *Hub) drainOnce(stop chan struct{}) {
	head := h.cfg.Source.ChangeSeq()

	h.mu.Lock()
	if !h.running || h.stop != stop {
		h.mu.Unlock()
		return
	}
	cursor := h.cursor
	var changes []Change
	if head > cursor {
		changes = h.cfg.Source.ChangesSince(cursor)
	}
	// A leading gap means compaction outran the drain (the hub slept
	// through more writes than the log retains): geometry routing is
	// impossible for the lost span, so every group counts as affected.
	gap := head > cursor && (len(changes) == 0 || changes[0].Seq != cursor+1)
	var affected, unaffected []*group
	anyStale := false
	for _, g := range h.groups {
		if g.stale {
			anyStale = true
		}
	}
	if head == cursor && !anyStale {
		h.mu.Unlock()
		return
	}
	for _, g := range h.groups {
		if g.stale || gap || missed(g, changes) {
			affected = append(affected, g)
		} else {
			unaffected = append(unaffected, g)
		}
	}
	h.stats.drains++
	eval := h.cfg.Eval
	h.mu.Unlock()

	// Evaluate outside the lock — the evaluator computes (in the
	// mapserver) through the generation-keyed query cache.
	type evalOut struct {
		g    *group
		resp wire.SearchResponse
		seq  uint64
		err  error
	}
	outs := make([]evalOut, 0, len(affected))
	for _, g := range affected {
		resp, seq, err := eval(context.Background(), g.query)
		outs = append(outs, evalOut{g: g, resp: resp, seq: seq, err: err})
	}
	mark := h.cfg.Mark(head)

	h.mu.Lock()
	defer h.mu.Unlock()
	h.stats.evals += uint64(len(outs))
	if !h.running || h.stop != stop {
		return
	}
	logID := h.cfg.Source.LogID()
	for _, out := range outs {
		g := out.g
		if h.groups[g.key] != g {
			continue // every subscriber left mid-evaluation
		}
		if out.err != nil {
			g.stale = true // retry on the next wake
			continue
		}
		updated, removed := Diff(g.last, out.resp.Results)
		g.order = out.resp.Results
		g.last = Materialize(out.resp.Results)
		g.seq = out.seq
		g.stale = false
		evMark := h.cfg.Mark(out.seq)
		ev := wire.Event{Type: wire.EventSync, Log: logID, Seq: out.seq, Session: &evMark}
		if len(updated) > 0 || len(removed) > 0 {
			ev.Type = wire.EventDelta
			ev.Updated = updated
			ev.Removed = removed
		}
		for sub := range g.subs {
			h.sendLocked(sub, ev)
		}
	}
	// Groups this pass checked and found unaffected advance their cursor
	// with a bare sync: their state is untouched by the batch, and a
	// persisted cursor that keeps pace with the head never falls behind
	// compaction. Only those: a group that joined after the check was never
	// compared against the batch, and Subscribe queued its own re-check.
	for _, g := range unaffected {
		if h.groups[g.key] != g || g.seq >= head {
			continue
		}
		g.seq = head
		ev := wire.Event{Type: wire.EventSync, Log: logID, Seq: head, Session: &mark}
		for sub := range g.subs {
			h.sendLocked(sub, ev)
		}
	}
	h.cursor = head
}

// Diff computes the net change from last to cur: results that entered or
// changed (in cur order), and node IDs that left (ascending).
func Diff(last map[int64]search.Result, cur []search.Result) (updated []search.Result, removed []int64) {
	seen := make(map[int64]bool, len(cur))
	for _, r := range cur {
		id := int64(r.NodeID)
		seen[id] = true
		if prev, ok := last[id]; !ok || !ResultEqual(prev, r) {
			updated = append(updated, r)
		}
	}
	for id := range last {
		if !seen[id] {
			removed = append(removed, id)
		}
	}
	sort.Slice(removed, func(i, j int) bool { return removed[i] < removed[j] })
	return updated, removed
}

// ResultEqual compares two results by content, field by field (Tags by
// content). Source — the NAME of the replica that served the row — is not
// content: replicas of one set serve equal rows under different names, and
// a failover re-snapshot from a sibling must diff to nothing.
func ResultEqual(a, b search.Result) bool {
	if a.NodeID != b.NodeID || a.Name != b.Name || a.Position != b.Position ||
		a.TextScore != b.TextScore || a.DistanceMeters != b.DistanceMeters ||
		a.Score != b.Score || len(a.Tags) != len(b.Tags) {
		return false
	}
	for k, v := range a.Tags {
		if b.Tags[k] != v {
			return false
		}
	}
	return true
}
