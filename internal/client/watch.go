package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"openflame/internal/discovery"
	"openflame/internal/geo"
	"openflame/internal/resilience"
	"openflame/internal/s2cell"
	"openflame/internal/search"
	"openflame/internal/watch"
	"openflame/internal/wire"
)

// WatchEvent is one application-visible event on a watch stream.
//
// The per-group contract is: the FIRST event for a group is an init carrying
// the full result set; every later event is a delta carrying only net
// changes — regardless of how many times the underlying stream reconnected,
// failed over to a sibling, or re-snapshotted after an origin restart. The
// client absorbs every server-side re-init by diffing it against its
// materialized state, so the application never sees a duplicated result or
// a phantom removal.
type WatchEvent struct {
	// Group is the plan-group key the event belongs to; Server names the
	// replica that produced it.
	Group  string
	Server string
	// Init marks the group's first event (full snapshot in Results);
	// otherwise Updated/Removed carry the net delta.
	Init    bool
	Results []search.Result
	Updated []search.Result
	Removed []int64
	// Mark is the serving replica's session mark as of the event, when the
	// server supplied one.
	Mark *wire.SessionMark
}

// Watch is a live subscription returned by WatchV2. Consume Events until it
// closes; call Stop to end the subscription.
type Watch struct {
	events chan WatchEvent
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Events returns the merged event stream across all watched replica groups.
// The channel closes after Stop (or cancellation of the WatchV2 context).
func (w *Watch) Events() <-chan WatchEvent { return w.events }

// Stop cancels the subscription and waits for its workers; Events closes.
func (w *Watch) Stop() {
	w.cancel()
	w.wg.Wait()
}

// watchBackoff bounds the reconnect backoff after a full failover round in
// which no replica of the group produced an event.
const (
	watchBackoffInitial = 50 * time.Millisecond
	watchBackoffMax     = 2 * time.Second
)

// maxWatchFrame bounds one SSE frame on the wire (a full init snapshot of a
// large region is the worst case).
const maxWatchFrame = 8 << 20

// WatchV2 subscribes to a standing query: like SearchV2 it plans the
// discovered servers into replica groups, but instead of asking once it
// opens one push stream per group and keeps it alive — an initial result
// set, then deltas as the region churns.
//
// Each group's stream fails over to a sibling on error, resuming from its
// (log, seq) cursor; a resumption the server cannot vouch for — a restarted
// origin's dead log id, a cursor compacted away — yields a fresh server
// snapshot that the client diffs against its materialized state, so the
// application-visible stream stays gap-free and duplicate-free through any
// reconnect. An overloaded hub's 429 is honored as a backoff floor
// (Retry-After) and never counts against the replica's circuit breaker:
// watch subscriptions live entirely outside the resilience tracker, whose
// failure accounting is calibrated for request/response traffic.
//
// WithMaxServers bounds how many groups are watched;
// WithConsistency/WithSession gate each subscription on the session's marks
// like any sessioned read, and marks carried by events feed back into the
// session.
func (c *Client) WatchV2(ctx context.Context, query string, near geo.LatLng, limit int, opts ...CallOption) (*Watch, error) {
	ctx = c.withCallOpts(ctx, opts)
	region := s2cell.CapRegion{Cap: geo.Cap{Center: near, RadiusMeters: c.SearchRadiusMeters}}
	anns := c.availableAnns(c.disc.DiscoverRegionCtx(ctx, region))
	groups := planAnnouncements(anns)
	if o := callOptsFrom(ctx); o.maxServers > 0 && len(groups) > o.maxServers {
		groups = groups[:o.maxServers]
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("client: no servers discovered to watch near %v", near)
	}
	wctx, cancel := context.WithCancel(ctx)
	w := &Watch{events: make(chan WatchEvent, 64), cancel: cancel}
	req := wire.SearchRequest{
		Query: query, Near: &near,
		MaxDistanceMeters: c.SearchRadiusMeters, Limit: limit,
	}
	for _, g := range groups {
		w.wg.Add(1)
		go func(g planGroup) {
			defer w.wg.Done()
			c.watchGroup(wctx, g, req, w)
		}(g)
	}
	go func() {
		w.wg.Wait()
		close(w.events)
	}()
	return w, nil
}

// watchState is one group's client-side view of its stream: the resume
// cursor and the materialized result set every incoming frame is reconciled
// against.
type watchState struct {
	log, seq uint64
	results  map[int64]search.Result
	inited   bool // the application has received this group's init
}

// watchGroup runs one group's subscription until the watch is stopped:
// stream from the preferred replica, fail over across siblings on error,
// back off only after a full round with no progress.
func (c *Client) watchGroup(ctx context.Context, g planGroup, query wire.SearchRequest, w *Watch) {
	st := &watchState{}
	backoff := watchBackoffInitial
	for ctx.Err() == nil {
		progressed := false
		floor := time.Duration(0)
		for _, a := range c.orderedReplicas(g) {
			if ctx.Err() != nil {
				return
			}
			prog, err := c.watchStream(ctx, g, a, query, st, w)
			if prog {
				progressed = true
				backoff = watchBackoffInitial
			}
			if err == nil {
				continue // stream ended cleanly (cancellation); loop re-checks ctx
			}
			var he *resilience.HTTPError
			if errors.As(err, &he) {
				switch he.StatusCode {
				case wire.StatusStaleReplica:
					// This replica cannot vouch for the session's marks; a
					// refusal carrying the refuser's mark may reveal a dead
					// log incarnation to heal. Siblings may still serve.
					if sess := sessionFrom(ctx); sess != nil && he.Session != nil {
						sess.healRestartedOrigin(g.Key, *he.Session)
					}
				case wire.StatusOverloaded:
					// ClassOverload: the hub's watcher bound is reached. The
					// Retry-After hint floors the backoff; the breaker never
					// hears about it (watch runs outside the tracker).
					if he.RetryAfter > floor {
						floor = he.RetryAfter
					}
				}
			}
		}
		if ctx.Err() != nil {
			return
		}
		sleep := backoff
		if !progressed {
			backoff *= 2
			if backoff > watchBackoffMax {
				backoff = watchBackoffMax
			}
		}
		if floor > sleep {
			sleep = floor
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(sleep):
		}
	}
}

// watchStream opens one subscription to one replica and pumps its events
// until the stream breaks. It reports whether any event was applied (the
// failover loop's progress signal) and the terminal error. Non-200
// responses surface from send as *resilience.HTTPError for classification,
// like every other request — but the attempt deliberately bypasses
// resilience.Do and the per-server timeout: a healthy stream is supposed to
// live for minutes, and its eventual death is a reconnect, not a server
// failure to account.
func (c *Client) watchStream(ctx context.Context, g planGroup, a discovery.Announcement, query wire.SearchRequest, st *watchState, w *Watch) (progressed bool, err error) {
	sub := wire.SubscribeRequest{Query: query, Log: st.log, Seq: st.seq}
	if rc := consistencyFor(ctx, g.Key); rc != nil {
		sub.Query.SetConsistency(rc)
	}
	body, err := json.Marshal(&sub)
	if err != nil {
		return false, err
	}
	res, err := c.send(ctx, http.MethodPost, a.URL+"/v1/watch", body, "text/event-stream")
	if err != nil {
		return false, err
	}
	defer res.Body.Close()
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 0, 64<<10), maxWatchFrame)
	var data []byte
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			// Frame boundary: dispatch the accumulated payload.
			if len(data) > 0 {
				var ev wire.Event
				if err := json.Unmarshal(data, &ev); err != nil {
					return progressed, fmt.Errorf("client: bad watch frame from %s: %w", a.URL, err)
				}
				data = data[:0]
				if c.applyWatchEvent(ctx, g, a, st, ev, w) {
					progressed = true
				}
			}
			continue
		}
		if rest, ok := bytes.CutPrefix(line, []byte("data:")); ok {
			// Multi-line data fields join with \n per the SSE spec.
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, bytes.TrimPrefix(rest, []byte(" "))...)
		}
		// Other SSE fields (comments, ids) are ignored.
	}
	if err := sc.Err(); err != nil {
		return progressed, err
	}
	// EOF: the server ended the stream (shutdown, or the hub dropped a slow
	// subscriber). Treat as a reconnectable break.
	return progressed, io.ErrUnexpectedEOF
}

// applyWatchEvent reconciles one server frame against the group's
// materialized state and forwards the net effect to the application. It
// returns whether the frame counted as stream progress.
//
// Reconciliation is what makes failover invisible: a sibling (or restarted
// origin) that cannot honor our cursor sends a fresh init; diffing it
// against the materialized map yields exactly the changes missed during the
// gap — nothing the application already holds is re-announced, nothing is
// silently skipped.
func (c *Client) applyWatchEvent(ctx context.Context, g planGroup, a discovery.Announcement, st *watchState, ev wire.Event, w *Watch) bool {
	if ev.Session != nil {
		if sess := sessionFrom(ctx); sess != nil {
			sess.observe(g.Key, *ev.Session)
		}
	}
	switch ev.Type {
	case wire.EventPing:
		// Keepalive: proof of a healthy stream, no state change.
		return true
	case wire.EventSync:
		// The server vouches that our materialized state is current through
		// the new cursor.
		st.log, st.seq = ev.Log, ev.Seq
		return true
	case wire.EventInit:
		st.log, st.seq = ev.Log, ev.Seq
		fresh := watch.Materialize(ev.Results)
		if !st.inited {
			st.results = fresh
			st.inited = true
			c.deliverWatch(ctx, w, WatchEvent{
				Group: g.Key, Server: a.Name, Init: true,
				Results: ev.Results, Mark: ev.Session,
			})
			return true
		}
		updated, removed := watch.Diff(st.results, ev.Results)
		st.results = fresh
		if len(updated) == 0 && len(removed) == 0 {
			return true
		}
		c.deliverWatch(ctx, w, WatchEvent{
			Group: g.Key, Server: a.Name,
			Updated: updated, Removed: removed, Mark: ev.Session,
		})
		return true
	case wire.EventDelta:
		st.log, st.seq = ev.Log, ev.Seq
		if st.results == nil {
			st.results = make(map[int64]search.Result)
		}
		// Dedup against materialized state: a replayed delta (reconnect
		// races) must not re-announce what the application already has.
		var updated []search.Result
		for _, r := range ev.Updated {
			id := int64(r.NodeID)
			if cur, ok := st.results[id]; ok && watch.ResultEqual(cur, r) {
				continue
			}
			st.results[id] = r
			updated = append(updated, r)
		}
		var removed []int64
		for _, id := range ev.Removed {
			if _, ok := st.results[id]; !ok {
				continue
			}
			delete(st.results, id)
			removed = append(removed, id)
		}
		if len(updated) == 0 && len(removed) == 0 {
			return true
		}
		c.deliverWatch(ctx, w, WatchEvent{
			Group: g.Key, Server: a.Name,
			Updated: updated, Removed: removed, Mark: ev.Session,
		})
		return true
	}
	return false
}

// deliverWatch hands one event to the application, yielding to cancellation
// if the consumer has stopped draining.
func (c *Client) deliverWatch(ctx context.Context, w *Watch, ev WatchEvent) {
	select {
	case w.events <- ev:
	case <-ctx.Done():
	}
}
