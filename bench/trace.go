package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"openflame/internal/dns"
	"openflame/internal/mapserver"
)

// Span names. An op span is one client call; its children are the HTTP
// round trips and DNS exchanges that call caused; a handler span is the
// server side of one round trip.
const (
	spanOp        = "op"
	spanRoundTrip = "roundtrip"
	spanHandler   = "handler"
	spanExchange  = "exchange"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer was created. Detail is the op kind, the URL path or the
// DNS server address, by span name.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	OpID   int64  `json:"op_id"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// traceHeader carries "<roundtrip span id>/<op id>" to the handler wrapper.
const traceHeader = "X-Bench-Trace"

// recordedPerService caps how many request bodies per service the handler
// wrapper keeps for the direct-call replay and the compute probes: enough
// for a median, few enough to fall in the window's first second (see
// direct) and to replay a 2 ms city geocode miss inside the run's deadline.
const recordedPerService = 400

// recordedReq is one request as a server received it.
type recordedReq struct {
	srv  *mapserver.Server
	path string
	body []byte
}

// spanShards spreads span appends from the client's fan-out workers and
// the servers' connection goroutines over independent locks.
const spanShards = 32

// tracer interposes on the three seams the program already accepts — a
// dns.Exchanger, an http.RoundTripper and an http.Handler — and records
// spans and byte counts while on. While off each wrapper costs one atomic
// load, so the same deployment serves the untraced and the traced window.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Int64

	shards [spanShards]struct {
		mu    sync.Mutex
		spans []span
		_     [40]byte
	}

	bytesIn, bytesOut atomic.Int64

	recMu    sync.Mutex
	recorded map[string][]recordedReq // by service
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), recorded: make(map[string][]recordedReq)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() int64 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	sh := &t.shards[s.ID%spanShards]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// take returns every span recorded so far, ordered by start, and resets
// the tracer's buffers.
func (t *tracer) take() ([]span, map[string][]recordedReq) {
	var out []span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.spans = nil
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	t.recMu.Lock()
	rec := t.recorded
	t.recorded = make(map[string][]recordedReq)
	t.recMu.Unlock()
	return out, rec
}

type opKey struct{}

// withOp marks ctx as belonging to op span id; the client derives every
// per-server context from it, so the wrappers below can read it back.
func withOp(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, opKey{}, id)
}

func opOf(ctx context.Context) int64 {
	id, _ := ctx.Value(opKey{}).(int64)
	return id
}

// --- dns.Exchanger --------------------------------------------------------

type tracedExchanger struct {
	t     *tracer
	inner *dns.MemExchanger
}

func (t *tracer) exchanger(inner *dns.MemExchanger) dns.Exchanger {
	return &tracedExchanger{t: t, inner: inner}
}

func (e *tracedExchanger) Exchange(addr string, req *dns.Message) (*dns.Message, error) {
	return e.ExchangeContext(context.Background(), addr, req)
}

func (e *tracedExchanger) ExchangeContext(ctx context.Context, addr string, req *dns.Message) (*dns.Message, error) {
	if !e.t.on.Load() {
		return e.inner.ExchangeContext(ctx, addr, req)
	}
	start := e.t.now()
	resp, err := e.inner.ExchangeContext(ctx, addr, req)
	op := opOf(ctx)
	e.t.add(span{ID: e.t.newID(), Parent: op, OpID: op, Name: spanExchange, Detail: addr, Start: start, End: e.t.now()})
	return resp, err
}

// --- http.RoundTripper ----------------------------------------------------

type tracedTransport struct {
	t     *tracer
	inner http.RoundTripper
}

func (t *tracer) roundTripper(inner http.RoundTripper) http.RoundTripper {
	return &tracedTransport{t: t, inner: inner}
}

// streamPath reports whether a path holds its connection open (a watch
// stream is not a round trip and would dwarf every percentile).
func streamPath(p string) bool { return p == "/v1/watch" }

func (rt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !rt.t.on.Load() || streamPath(req.URL.Path) {
		return rt.inner.RoundTrip(req)
	}
	t := rt.t
	op := opOf(req.Context())
	id := t.newID()
	// A RoundTripper must not modify the caller's request.
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, strconv.FormatInt(id, 10)+"/"+strconv.FormatInt(op, 10))
	if req.ContentLength > 0 {
		t.bytesOut.Add(req.ContentLength)
	}
	s := span{ID: id, Parent: op, OpID: op, Name: spanRoundTrip, Detail: req.URL.Path, Start: t.now()}
	res, err := rt.inner.RoundTrip(req)
	if err != nil {
		s.End = t.now()
		t.add(s)
		return nil, err
	}
	// The round trip ends when the client has the whole body, not when
	// the headers arrive.
	res.Body = &tracedBody{ReadCloser: res.Body, t: t, s: s}
	return res, nil
}

type tracedBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	n    int64
	once sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.t.now()
		b.t.bytesIn.Add(b.n)
		b.t.add(b.s)
	})
	return err
}

// --- http.Handler ---------------------------------------------------------

// serviceOf maps a URL path to the per-layer metric's service segment, ""
// for paths the benchmark does not attribute (/info, /healthz, /v1/...).
func serviceOf(path string) string {
	switch path {
	case "/search", "/geocode", "/rgeocode", "/route", "/routematrix", "/localize":
		return path[1:]
	}
	if strings.HasPrefix(path, "/tiles/") {
		return "tiles"
	}
	return ""
}

func (t *tracer) handler(srv *mapserver.Server) http.Handler {
	inner := srv.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || streamPath(r.URL.Path) {
			inner.ServeHTTP(w, r)
			return
		}
		var parent, op int64
		if h := r.Header.Get(traceHeader); h != "" {
			if a, b, ok := strings.Cut(h, "/"); ok {
				parent, _ = strconv.ParseInt(a, 10, 64)
				op, _ = strconv.ParseInt(b, 10, 64)
			}
		}
		svc := serviceOf(r.URL.Path)
		if svc != "" {
			t.record(srv, svc, r)
		}
		start := t.now()
		inner.ServeHTTP(w, r)
		t.add(span{ID: t.newID(), Parent: parent, OpID: op, Name: spanHandler, Detail: r.URL.Path, Start: start, End: t.now()})
	})
}

// record keeps the first recordedPerService requests of each service for
// the direct-call replay. It runs before the handler span starts, so the
// body copy is not billed to the server.
func (t *tracer) record(srv *mapserver.Server, svc string, r *http.Request) {
	t.recMu.Lock()
	full := len(t.recorded[svc]) >= recordedPerService
	t.recMu.Unlock()
	if full {
		return
	}
	rec := recordedReq{srv: srv, path: r.URL.Path}
	if r.Method == http.MethodPost {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return
		}
		rec.body = body
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	t.recMu.Lock()
	t.recorded[svc] = append(t.recorded[svc], rec)
	t.recMu.Unlock()
}

// --- span arithmetic --------------------------------------------------------

// covered returns how much of [start, end) the given intervals cover,
// counting overlaps once.
func covered(start, end int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := start
	for _, iv := range ivs {
		lo, hi := iv[0], iv[1]
		if lo < cur {
			lo = cur
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			sum += hi - lo
			cur = hi
		}
	}
	return sum
}

// selfTimes returns, per span id, the span's duration minus the part of it
// its direct children cover.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}
