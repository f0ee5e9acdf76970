package mapserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"openflame/internal/store"
	"openflame/internal/watch"
	"openflame/internal/wire"
)

// watchPingInterval is the keepalive cadence on idle watch streams.
const watchPingInterval = 15 * time.Second

// watchWriteWindow is the per-write deadline on a watch stream: each event
// write resets the connection's write deadline this far out via
// http.ResponseController, so a server-level WriteTimeout (sized for
// request/response endpoints) never kills a healthy long-lived stream —
// while a genuinely stuck peer still fails a write within the window.
const watchWriteWindow = 30 * time.Second

// storeSource adapts store.Store's change log to the watch.Source the hub
// drains.
type storeSource struct{ st *store.Store }

func (ss storeSource) LogID() uint64     { return ss.st.LogID() }
func (ss storeSource) ChangeSeq() uint64 { return ss.st.View().Seq }

func (ss storeSource) ChangesSince(since uint64) []watch.Change {
	chs := ss.st.View().ChangesSince(since, 0)
	out := make([]watch.Change, len(chs))
	for i, c := range chs {
		out[i] = watch.Change{Seq: c.Seq, Pos: c.Pos}
	}
	return out
}

func (ss storeSource) Notify() <-chan struct{} { return ss.st.ChangeNotify() }

// watchEval answers one standing query for the hub over one pinned view,
// reporting the view's change-log position — the same cached search path
// every polled read takes, so watcher evaluations coalesce with each other
// AND with ordinary /search traffic.
func (s *Server) watchEval(ctx context.Context, req wire.SearchRequest) (wire.SearchResponse, uint64, error) {
	v := s.store.View()
	resp := cachedQuery(ctx, s, v, wire.SvcSearch, req, s.searchUncached)
	if ctx.Err() != nil {
		// A detached singleflight follower carries a zero value; never
		// materialize a group from it.
		return wire.SearchResponse{}, 0, ctx.Err()
	}
	return resp, v.Seq, nil
}

// WatchStats snapshots the watch hub's counters.
func (s *Server) WatchStats() watch.Stats { return s.hub.Stats() }

// handleWatch serves POST /v1/watch: an SSE stream of wire.Event frames —
// one init snapshot (or a bare sync when the request's resume cursor
// provably covers the current state), then deltas as the region churns.
//
// The endpoint is deliberately NOT behind s.admit: a stream held for
// minutes would pin a request-admission slot forever. Its own bound is the
// hub's watcher limit, shed with the same 429/Retry-After discipline.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req wire.SubscribeRequest
	if err := decodeJSON(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// Session consistency gates subscription like any read: a lagging
	// replica must not snapshot state older than the subscriber's marks.
	rc := req.Query.TakeConsistency()
	if !s.WaitFresh(r.Context(), rc) {
		if r.Context().Err() != nil {
			httpError(w, http.StatusServiceUnavailable, "request cancelled")
			return
		}
		s.refuseStale(w, s.staleError(rc))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	sub, err := s.hub.Subscribe(r.Context(), req)
	if err != nil {
		if errors.Is(err, watch.ErrOverloaded) {
			s.watchShed.write(w)
			return
		}
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	h.Set(HeaderGeneration, strconv.FormatUint(s.Generation(), 10))
	w.WriteHeader(http.StatusOK)

	rc2 := http.NewResponseController(w)
	write := func(ev wire.Event) bool {
		// Reset the write deadline per event: long-lived streams outlive
		// any server WriteTimeout, but each individual write still must
		// land within the window. SetWriteDeadline errors (unsupported
		// writer) are ignored — the stream then lives under whatever
		// server-level deadline exists, exactly the pre-watch behavior.
		_ = rc2.SetWriteDeadline(time.Now().Add(watchWriteWindow))
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	ping := time.NewTicker(s.watchPing)
	defer ping.Stop()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-sub.Events():
			if !ok {
				// Dropped for falling behind: end the stream; the client
				// reconnects with its cursor and diffs the re-init away.
				return
			}
			if !write(ev) {
				return
			}
			ping.Reset(s.watchPing)
		case <-ping.C:
			if !write(wire.Event{Type: wire.EventPing}) {
				return
			}
		}
	}
}
