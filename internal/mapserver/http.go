package mapserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"openflame/internal/admission"
	"openflame/internal/fanout"
	"openflame/internal/store"
	"openflame/internal/tiles"
	"openflame/internal/wire"
)

// Identity headers carried on every request. Authentication itself is out
// of scope (the paper leaves it to each organization, §5.3); the policy
// layer consumes these assertions.
const (
	HeaderUser = "X-Flame-User" // e.g. "alice@cmu.edu"
	HeaderApp  = "X-Flame-App"  // e.g. "campus-nav"
	// HeaderGeneration carries the map generation of the store view the
	// response was computed from: a read service's answer reflects exactly
	// the writes of that generation, however many land meanwhile.
	HeaderGeneration = "X-Flame-Generation"
)

// Rule decides access for one service.
type Rule struct {
	// Public allows everyone.
	Public bool
	// UserDomains, when non-empty, requires the user identity's domain to
	// be listed (user-level control, §5.3).
	UserDomains []string
	// Apps, when non-empty, requires the application identifier to be
	// listed (application-level control, §5.3).
	Apps []string
}

// Allows evaluates the rule.
func (r Rule) Allows(user, app string) bool {
	if r.Public {
		return true
	}
	if len(r.UserDomains) == 0 && len(r.Apps) == 0 {
		return false
	}
	if len(r.UserDomains) > 0 {
		at := strings.LastIndexByte(user, '@')
		if at < 0 {
			return false
		}
		domain := strings.ToLower(user[at+1:])
		ok := false
		for _, d := range r.UserDomains {
			if strings.ToLower(d) == domain {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(r.Apps) > 0 {
		ok := false
		for _, a := range r.Apps {
			if a == app {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Policy is a server's access policy: a default rule plus per-service
// overrides (service-level control, §5.3).
type Policy struct {
	Default    Rule
	PerService map[wire.Service]Rule
}

// Allow decides whether the identity may use the service.
func (p *Policy) Allow(svc wire.Service, user, app string) bool {
	if p == nil {
		return true
	}
	if r, ok := p.PerService[svc]; ok {
		return r.Allows(user, app)
	}
	return p.Default.Allows(user, app)
}

// service is one row of the read-service table — everything the HTTP layer
// knows about one of the six read services, in the one place they are
// enumerated. The mux, the dedicated endpoints and /v1/batch are all driven
// from it.
type service struct {
	name wire.Service
	path string // the dedicated POST endpoint
	// policy is the §5.3 policy service guarding it.
	policy wire.Service
	// decode parses one request body into the service's typed request.
	decode func(body []byte) (wire.ConsistencyCarrier, error)
	// compute answers a decoded request over one pinned view. The response
	// is the caller's own copy, so attaching a session mark (SetSession)
	// never mutates an entry shared through the query cache.
	compute func(s *Server, ctx context.Context, v *store.View, req wire.ConsistencyCarrier) wire.SessionCarrier
}

// services is the table. Routematrix falls under the route policy — it
// prices the same legs a route exposes. Localize is the one uncached row.
var services = []service{
	newService(wire.SvcGeocode, wire.SvcGeocode, cached(wire.SvcGeocode, (*Server).geocodeUncached)),
	newService(wire.SvcRGeocode, wire.SvcRGeocode, cached(wire.SvcRGeocode, (*Server).rgeocodeUncached)),
	newService(wire.SvcSearch, wire.SvcSearch, cached(wire.SvcSearch, (*Server).searchUncached)),
	newService(wire.SvcRoute, wire.SvcRoute, cached(wire.SvcRoute, (*Server).routeUncached)),
	newService(wire.SvcRouteMatrix, wire.SvcRoute, cached(wire.SvcRouteMatrix, (*Server).routeMatrixUncached)),
	newService(wire.SvcLocalize, wire.SvcLocalize,
		func(s *Server, _ context.Context, _ *store.View, req wire.LocalizeRequest) wire.LocalizeResponse {
			return s.Localize(req)
		}),
}

// newService binds one service's request and response types into a table
// row.
func newService[Req, Resp any, PReq interface {
	*Req
	wire.ConsistencyCarrier
}, PResp interface {
	*Resp
	wire.SessionCarrier
}](name, policy wire.Service, compute func(*Server, context.Context, *store.View, Req) Resp) service {
	return service{
		name: name, path: "/" + string(name), policy: policy,
		decode: func(body []byte) (wire.ConsistencyCarrier, error) {
			req := PReq(new(Req))
			return req, decodeJSON(body, req)
		},
		compute: func(s *Server, ctx context.Context, v *store.View, req wire.ConsistencyCarrier) wire.SessionCarrier {
			resp := compute(s, ctx, v, *req.(PReq))
			return PResp(&resp)
		},
	}
}

// cached routes a service's compute through the query cache: the single
// compute path shared by the dedicated endpoints, /v1/batch and the watch
// hub, so all of them hit the same entries. ctx rides into the cache layer:
// a cancelled request never starts a compute and a singleflight follower
// detaches instead of waiting on a leader whose answer it will never send.
func cached[Req, Resp any](svc wire.Service, compute func(*Server, *store.View, Req) Resp) func(*Server, context.Context, *store.View, Req) Resp {
	return func(s *Server, ctx context.Context, v *store.View, req Req) Resp {
		return cachedQuery(ctx, s, v, svc, req, func(v *store.View, r Req) Resp { return compute(s, v, r) })
	}
}

// lookupService finds a table row by service name (nil = not a read
// service).
func lookupService(name wire.Service) *service {
	for i := range services {
		if services[i].name == name {
			return &services[i]
		}
	}
	return nil
}

// Handler returns the server's HTTP interface. Every request honors its
// r.Context(): when the client disconnects or cancels mid-request (a
// federated client skipping a slow member, §5.2), the response is abandoned
// rather than written, and the handler goroutine is released immediately.
//
// The compute-bearing endpoints sit behind the admission controller (when
// one is configured). /info, /healthz and /v1/changes deliberately do not:
// an overloaded server must stay discoverable, report itself alive, and
// keep feeding its sibling replicas — shedding anti-entropy would turn an
// overload into a staleness incident.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/info", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderGeneration, strconv.FormatUint(s.Generation(), 10))
		respond(w, r, func() (interface{}, int, string) { return s.Info(), http.StatusOK, "" })
	})
	for i := range services {
		mux.HandleFunc(services[i].path, s.admit(s.jsonEndpoint(&services[i])))
	}
	mux.HandleFunc("/v1/batch", s.admit(s.handleBatch))
	// /v1/watch holds a connection for the subscription's lifetime, so it
	// sits behind the hub's watcher bound instead of the request admission
	// gate (a stream is not a request). It falls under the search policy: a
	// watch stream exposes exactly the data a search exposes.
	mux.HandleFunc("/v1/watch", s.guard(wire.SvcSearch, s.handleWatch))
	mux.HandleFunc("/v1/changes", s.guard(wire.SvcChanges, s.handleChanges))
	mux.HandleFunc("/tiles/", s.admit(s.guard(wire.SvcTiles, s.handleTile)))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// admit wraps a handler with the admission gate. The shed path runs before
// anything else — before the policy guard, before the body is read, before
// any decode — and writes a pre-rendered refusal, so a saturated server
// answers its excess traffic for the price of two failed channel sends and
// one small write. A nil controller (admission off) returns h untouched.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	if s.adm == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		release, err := s.adm.Acquire(r.Context().Done())
		if err != nil {
			if errors.Is(err, admission.ErrShed) {
				s.shed.write(w)
			} else {
				// The caller hung up while queued; nobody reads this.
				httpError(w, http.StatusServiceUnavailable, "request cancelled")
			}
			return
		}
		defer release()
		h(w, r)
	}
}

// shedResponse is one 429 + Retry-After refusal, rendered once at
// construction so refusing costs a header write and one buffer copy, not a
// JSON encode per refused request.
type shedResponse struct {
	body       []byte
	retryAfter string
}

// renderShed pre-renders a refusal carrying msg and the backoff hint
// (rounded to integral seconds, at least 1 — the HTTP delay-seconds form).
func renderShed(msg string, retryAfter time.Duration) (shedResponse, error) {
	secs := int(retryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	body, err := json.Marshal(wire.ErrorResponse{Error: msg, RetryAfterSeconds: secs})
	if err != nil {
		return shedResponse{}, fmt.Errorf("mapserver: render shed body: %w", err)
	}
	return shedResponse{body: append(body, '\n'), retryAfter: strconv.Itoa(secs)}, nil
}

func (sr shedResponse) write(w http.ResponseWriter) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set(wire.RetryAfterHeader, sr.retryAfter)
	w.WriteHeader(wire.StatusOverloaded)
	_, _ = w.Write(sr.body)
}

// decodeJSON decodes the first JSON value in body, tolerating trailing
// data exactly as the pre-batch endpoints (json.Decoder on the request
// body) always did.
func decodeJSON(body []byte, v interface{}) error {
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// staleError renders the wire.StatusStaleReplica message: the first mark
// the reader demanded that this replica cannot stand behind, and where it
// actually stands, so a client log line is enough to diagnose a lagging
// member.
func (s *Server) staleError(rc *wire.ReadConsistency) string {
	for _, m := range rc.Marks {
		if s.vouch(m) {
			continue
		}
		log, seq := s.SyncPosition(m.Origin)
		return fmt.Sprintf("stale replica: read requires %s@%d (log %d), %s has synced it to %d (log %d, own seq %d)",
			m.Origin, m.Seq, m.Log, s.cfg.Name, seq, log, s.ChangeSeq())
	}
	return "stale replica"
}

// refuseStale writes a stale-replica refusal. It carries this server's
// current mark so a client holding a mark from a dead incarnation of THIS
// server can heal (see wire.ErrorResponse).
func (s *Server) refuseStale(w http.ResponseWriter, msg string) {
	m := s.SessionMark()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(wire.StatusStaleReplica)
	_ = json.NewEncoder(w).Encode(wire.ErrorResponse{Error: msg, Session: &m})
}

// The read pipeline, shared by the dedicated endpoints and /v1/batch
// items. ctx is re-checked between stages, so a caller that hung up
// mid-pipeline earns 503 immediately and never starts the next stage:
//
//	decode    — a malformed body earns 400.
//	freshness — the session envelope is stripped off the request (the
//	            compute path, and with it the query cache key, never sees
//	            it) and gates the read: a replica behind a requested mark
//	            answers wire.StatusStaleReplica after the anti-entropy
//	            grace. A wait abandoned by cancellation answers 503, not
//	            412 — the replica was not proven stale.
//	pin       — the caller loads ONE store view, after freshness, so it
//	            holds every write the gate vouched for. A dedicated endpoint
//	            stamps X-Flame-Generation and the ETag from it and
//	            revalidates (a lagging replica refuses before it could call
//	            the reader's cached copy current); a batch pins one view
//	            for all its items.
//	compute   — the service's table row, over the pinned view.
//	mark      — a sessioned answer carries the pinned view's mark, which
//	            claims exactly the writes the answer reflects.
//
// admitRead runs decode and freshness; http.StatusOK means the request may
// be answered.
func (s *Server) admitRead(ctx context.Context, svc *service, body []byte) (wire.ConsistencyCarrier, *wire.ReadConsistency, int, string) {
	req, err := svc.decode(body)
	if err != nil {
		return nil, nil, http.StatusBadRequest, "bad request body: " + err.Error()
	}
	if ctx.Err() != nil {
		return nil, nil, http.StatusServiceUnavailable, "request cancelled"
	}
	rc := req.TakeConsistency()
	if !s.WaitFresh(ctx, rc) {
		if ctx.Err() != nil {
			return nil, nil, http.StatusServiceUnavailable, "request cancelled"
		}
		return nil, nil, wire.StatusStaleReplica, s.staleError(rc)
	}
	return req, rc, http.StatusOK, ""
}

// answer runs compute and mark over the pinned view v. It returns what an
// answerFunc does.
func (s *Server) answer(ctx context.Context, svc *service, v *store.View, req wire.ConsistencyCarrier, rc *wire.ReadConsistency) (interface{}, int, string) {
	if ctx.Err() != nil {
		return nil, http.StatusServiceUnavailable, "request cancelled"
	}
	resp := svc.compute(s, ctx, v, req)
	if ctx.Err() != nil {
		// A detached singleflight follower carries a zero value; never
		// dress it up as a 200.
		return nil, http.StatusServiceUnavailable, "request cancelled"
	}
	if rc != nil {
		m := s.markAt(v.Seq)
		resp.SetSession(&m)
	}
	return resp, http.StatusOK, ""
}

// stamp sets the generation and entity-tag headers of a read answered from
// a view of generation gen.
func stamp(w http.ResponseWriter, gen uint64, etag string) {
	w.Header().Set(HeaderGeneration, strconv.FormatUint(gen, 10))
	w.Header().Set("ETag", etag)
}

// jsonEndpoint serves one table row's dedicated POST endpoint: the §5.3
// policy guard, then the read pipeline; the pinned view's generation and
// ETag are stamped on the response, and If-None-Match revalidation — a
// request whose ETag (map generation + request hash) still matches earns
// 304 without recomputing anything — runs before the compute, which runs
// off the handler goroutine (see await). Only requests that decode
// successfully are ETagged — a malformed body always earns its 400, never
// a 304.
func (s *Server) jsonEndpoint(svc *service) http.HandlerFunc {
	return s.guard(svc.policy, func(w http.ResponseWriter, r *http.Request) {
		body, ok := readBody(w, r, maxBodyBytes)
		if !ok {
			return
		}
		ctx := r.Context()
		req, rc, status, msg := s.admitRead(ctx, svc, body)
		var v interface{}
		if status == http.StatusOK {
			view := s.store.View()
			etag := etagFor(view.Gen, string(svc.name), r.Header.Get(HeaderUser), r.Header.Get(HeaderApp), body)
			stamp(w, view.Gen, etag)
			if notModified(r, etag) {
				status = http.StatusNotModified
			} else {
				v, status, msg = await(ctx, func() (interface{}, int, string) {
					return s.answer(ctx, svc, view, req, rc)
				})
			}
		}
		switch status {
		case http.StatusOK:
			writeJSON(w, v)
		case http.StatusNotModified:
			w.WriteHeader(status)
		case wire.StatusStaleReplica:
			s.refuseStale(w, msg)
		default:
			httpError(w, status, msg)
		}
	})
}

// handleBatch serves POST /v1/batch: up to wire.MaxBatchItems heterogeneous
// sub-requests answered in one round trip with per-sub-request status, so
// one denied or malformed item never voids the others' answers. Every item
// is answered from one view, pinned after every item's freshness gate, so
// BatchResponse.Generation is exact for the whole batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Context().Err() != nil {
		httpError(w, http.StatusServiceUnavailable, "request cancelled")
		return
	}
	body, ok := readBody(w, r, maxBatchBodyBytes)
	if !ok {
		return
	}
	var breq wire.BatchRequest
	if err := decodeJSON(body, &breq); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(breq.Items) > wire.MaxBatchItems {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d items exceeds the limit of %d", len(breq.Items), wire.MaxBatchItems))
		return
	}
	user, app := r.Header.Get(HeaderUser), r.Header.Get(HeaderApp)
	// The 304 short-circuit must not outrank session consistency: a batch
	// whose items carry marks gets per-item freshness decisions (412s
	// included), never a whole-batch "your copy is current" from a replica
	// that may be lagging — mirroring the freshness-before-ETag order of
	// the dedicated endpoints. notModified first: the probe decode only
	// runs for actual conditional requests.
	gen := s.Generation()
	if etag := etagFor(gen, "batch", user, app, body); notModified(r, etag) && !batchCarriesConsistency(breq) {
		stamp(w, gen, etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	v, status, msg := await(r.Context(), func() (interface{}, int, string) {
		// Items run on a bounded pool: a batch of N route expansions costs
		// max, not sum. Slots are index-aligned, so parallel completion
		// cannot reorder results.
		items := make([]batchSlot, len(breq.Items))
		fanout.ForEach(r.Context(), len(breq.Items), 0, func(ctx context.Context, i int) {
			items[i] = s.admitItem(ctx, breq.Items[i], user, app)
		})
		view := s.store.View()
		resp := wire.BatchResponse{Generation: view.Gen, Results: make([]wire.BatchItemResult, len(items))}
		fanout.ForEach(r.Context(), len(items), 0, func(ctx context.Context, i int) {
			resp.Results[i] = s.answerItem(ctx, view, items[i])
		})
		return resp, http.StatusOK, ""
	})
	if status != http.StatusOK {
		httpError(w, status, msg)
		return
	}
	gen = v.(wire.BatchResponse).Generation
	stamp(w, gen, etagFor(gen, "batch", user, app, body))
	writeJSON(w, v)
}

// batchCarriesConsistency reports whether any item body carries a session
// envelope (a cheap probe decode; malformed bodies read as envelope-less
// and earn their per-item 400 downstream).
func batchCarriesConsistency(breq wire.BatchRequest) bool {
	for _, it := range breq.Items {
		var probe struct {
			Consistency *json.RawMessage `json:"consistency"`
		}
		if err := decodeJSON(it.Body, &probe); err == nil && probe.Consistency != nil {
			return true
		}
	}
	return false
}

// batchSlot is one batch item between the two halves of the read
// pipeline: admitted (svc set) or already answered (res).
type batchSlot struct {
	svc *service
	req wire.ConsistencyCarrier
	rc  *wire.ReadConsistency
	res wire.BatchItemResult
}

// admitItem runs the first half of one batch sub-request, mirroring the
// dedicated endpoint's order: unknown service 404, then policy 403, then
// decode 400 and stale-replica 412. Item bodies are full service requests,
// so session envelopes ride through batches unchanged: a stale item fails
// alone (the client re-runs it per-call against a sibling) and a fresh
// item's response body carries the updated mark.
func (s *Server) admitItem(ctx context.Context, it wire.BatchItem, user, app string) batchSlot {
	svc := lookupService(it.Service)
	if svc == nil {
		return batchSlot{res: wire.BatchItemResult{
			Status: http.StatusNotFound,
			Error:  fmt.Sprintf("unknown service %q", it.Service),
		}}
	}
	if !s.auth.Allow(svc.policy, user, app) {
		return batchSlot{res: wire.BatchItemResult{
			Status: http.StatusForbidden,
			Error:  fmt.Sprintf("access to %s denied by policy", it.Service),
		}}
	}
	req, rc, status, msg := s.admitRead(ctx, svc, it.Body)
	if status != http.StatusOK {
		return batchSlot{res: wire.BatchItemResult{Status: status, Error: msg}}
	}
	return batchSlot{svc: svc, req: req, rc: rc}
}

// answerItem answers an admitted batch item over the batch's view.
func (s *Server) answerItem(ctx context.Context, v *store.View, it batchSlot) wire.BatchItemResult {
	if it.svc == nil {
		return it.res
	}
	resp, status, msg := s.answer(ctx, it.svc, v, it.req, it.rc)
	if status != http.StatusOK {
		return wire.BatchItemResult{Status: status, Error: msg}
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return wire.BatchItemResult{Status: http.StatusInternalServerError, Error: err.Error()}
	}
	return wire.BatchItemResult{Status: http.StatusOK, Body: b}
}

// handleChanges serves GET /v1/changes?since=N — the anti-entropy pull
// endpoint sibling replicas converge through. It is guarded as its own
// policy service ("changes"), so an operator can restrict replication to
// the replica set's identities while the read services stay public.
func (s *Server) handleChanges(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	var since uint64
	if raw := r.URL.Query().Get("since"); raw != "" {
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad since parameter: "+err.Error())
			return
		}
		since = n
	}
	v := s.store.View()
	w.Header().Set(HeaderGeneration, strconv.FormatUint(v.Gen, 10))
	writeJSON(w, s.changesAt(v, since))
}

// etagFor derives the entity tag of a read: the map generation plus a hash
// of the request (and the identity, since the §5.3 policy can make the
// response identity-dependent). Any write bumps the generation and with it
// every ETag, so a matching tag proves the cached response is current.
func etagFor(gen uint64, kind, user, app string, body []byte) string {
	h := fnv.New64a()
	for _, part := range []string{kind, user, app} {
		_, _ = io.WriteString(h, part)
		_, _ = h.Write([]byte{0})
	}
	_, _ = h.Write(body)
	return fmt.Sprintf("%q", fmt.Sprintf("g%d-%016x", gen, h.Sum64()))
}

// notModified reports whether the request's If-None-Match matches the tag.
func notModified(r *http.Request, etag string) bool {
	inm := r.Header.Get("If-None-Match")
	if inm == "" {
		return false
	}
	for _, cand := range strings.Split(inm, ",") {
		c := strings.TrimSpace(cand)
		c = strings.TrimPrefix(c, "W/")
		if c == etag || c == "*" {
			return true
		}
	}
	return false
}

// answerFunc produces one answer: the response value and the HTTP status it
// earns, or a non-200 status and its error message.
type answerFunc func() (interface{}, int, string)

// maxOrphanedComputes bounds computations abandoned by cancelled requests
// that are still running in the background. Past the bound, cancelled
// handlers block until their computation finishes — restoring the old
// synchronous back-pressure instead of letting a cancel-and-retry client
// amplify server work without limit.
const maxOrphanedComputes = 64

var orphanBudget = make(chan struct{}, maxOrphanedComputes)

// await runs compute off the calling goroutine, honoring ctx: a request
// already cancelled is never computed, and one cancelled mid-compute is
// answered with 503 while the computation finishes (and is discarded) in
// the background — the handler goroutine, and with it the client's
// connection slot, is released immediately (up to the orphan bound above).
func await(ctx context.Context, compute answerFunc) (interface{}, int, string) {
	if ctx.Err() != nil {
		return nil, http.StatusServiceUnavailable, "request cancelled"
	}
	type result struct {
		v      interface{}
		status int
		errMsg string
	}
	done := make(chan result, 1)
	go func() {
		v, status, msg := compute()
		done <- result{v, status, msg}
	}()
	select {
	case res := <-done:
		return res.v, res.status, res.errMsg
	case <-ctx.Done():
		select {
		case orphanBudget <- struct{}{}:
			go func() { <-done; <-orphanBudget }() // drain in the background
		case <-done: // budget exhausted: wait it out (back-pressure)
		}
		return nil, http.StatusServiceUnavailable, "request cancelled"
	}
}

// respond awaits compute and writes its answer: the value as JSON, or an
// ErrorResponse carrying the message under a non-200 status.
func respond(w http.ResponseWriter, r *http.Request, compute answerFunc) {
	v, status, msg := await(r.Context(), compute)
	if status != http.StatusOK {
		httpError(w, status, msg)
		return
	}
	writeJSON(w, v)
}

// guard wraps a handler with the §5.3 policy check.
func (s *Server) guard(svc wire.Service, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Context().Err() != nil {
			httpError(w, http.StatusServiceUnavailable, "request cancelled")
			return
		}
		user := r.Header.Get(HeaderUser)
		app := r.Header.Get(HeaderApp)
		if !s.auth.Allow(svc, user, app) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusForbidden)
			_ = json.NewEncoder(w).Encode(wire.ErrorResponse{
				Error: fmt.Sprintf("access to %s denied by policy", svc)})
			return
		}
		h(w, r)
	}
}

// handleTile serves GET /tiles/{z}/{x}/{y}.png.
func (s *Server) handleTile(w http.ResponseWriter, r *http.Request) {
	parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/tiles/"), "/")
	if len(parts) != 3 || !strings.HasSuffix(parts[2], ".png") {
		httpError(w, http.StatusBadRequest, "want /tiles/{z}/{x}/{y}.png")
		return
	}
	z, err1 := strconv.Atoi(parts[0])
	x, err2 := strconv.Atoi(parts[1])
	y, err3 := strconv.Atoi(strings.TrimSuffix(parts[2], ".png"))
	if err1 != nil || err2 != nil || err3 != nil {
		httpError(w, http.StatusBadRequest, "bad tile coordinates")
		return
	}
	c := tiles.Coord{Z: z, X: x, Y: y}
	if !c.Valid() {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("tile %v out of range", c))
		return
	}
	v := s.store.View()
	png, err := s.tileAt(r.Context(), v, c)
	if err != nil {
		if r.Context().Err() != nil {
			httpError(w, http.StatusServiceUnavailable, "request cancelled")
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// Tiles revalidate on content: the serve path is a cache lookup, so
	// hashing the bytes is cheap, and a matching ETag skips the transfer.
	// Content (not generation) tags mean a write that did not change this
	// tile's pixels leaves its ETag — and its 304s — intact.
	h := fnv.New64a()
	_, _ = h.Write(png)
	etag := fmt.Sprintf("%q", fmt.Sprintf("t-%016x", h.Sum64()))
	w.Header().Set(HeaderGeneration, strconv.FormatUint(v.Gen, 10))
	w.Header().Set("ETag", etag)
	if notModified(r, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "image/png")
	_, _ = w.Write(png)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// readBody enforces POST and returns the raw request body (needed intact
// for ETag hashing before any decode), bounded by limit bytes: a body past
// the cap stops reading mid-stream and earns 413, so an oversized (or
// unbounded, Content-Length-less) POST costs at most limit bytes of memory
// instead of everything the client cares to send.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return nil, false
	}
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit))
			return nil, false
		}
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return nil, false
	}
	return body, true
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(wire.ErrorResponse{Error: msg})
}
