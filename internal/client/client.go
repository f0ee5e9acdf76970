// Package client implements the OpenFLAME client of Figure 2: it discovers
// map servers for a location through the DNS-based discovery layer, fans
// location-based service requests out to them over HTTP, and assembles the
// answers — ranking merged search results, stitching cross-server routes
// through shared portals, selecting the most plausible localization fix,
// and compositing tiles (§5.2).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"openflame/internal/discovery"
	"openflame/internal/fanout"
	"openflame/internal/geo"
	"openflame/internal/geocode"
	"openflame/internal/loc"
	"openflame/internal/resilience"
	"openflame/internal/s2cell"
	"openflame/internal/search"
	"openflame/internal/wire"
)

// Client is an OpenFLAME client. Create with New; safe for concurrent use.
//
// Every service method fans out to the servers discovered for the request
// concurrently (the client is the federation's aggregation point, §5.2), so
// end-to-end latency tracks the slowest responding server, not the sum of
// all of them.
//
// The surface is one ctx-first method per service — SearchV2, GeocodeV2,
// ReverseGeocodeV2, LocalizeV2, RouteV2, DiscoverV2, InfoV2, TilePNGV2 —
// taking variadic CallOptions (WithMaxServers, WithTimeout,
// WithConsistency, WithSession; see options.go). Every sub-query is its own
// HTTP request; the servers' /v1/batch endpoint serves other clients.
type Client struct {
	disc *discovery.Client
	http *http.Client

	// User and App are the identity assertions sent with each request
	// (§5.3).
	User string
	App  string
	// WorldURL names the large world-map provider used for coarse
	// geocoding (§5.2 names OpenStreetMap for this role).
	WorldURL string
	// SearchRadiusMeters bounds discovery-based search (default 1000).
	SearchRadiusMeters float64
	// MaxConcurrency bounds the per-request fan-out worker pool (default
	// fanout.DefaultLimit; 1 reproduces the sequential client).
	MaxConcurrency int
	// PerServerTimeout, when > 0, caps each individual server call so one
	// hung federation member cannot stall the merge; the slow server is
	// skipped like any other failure. The cap spans the whole resilient
	// call — retries and hedges included.
	PerServerTimeout time.Duration

	// Resilience, when non-nil, runs every server call through the tracker
	// and its Policy (see internal/resilience): transient per-server
	// failures retried with jittered backoff within a budget, a second
	// hedge attempt raced against a straggler after the server's tracked
	// p95, and a circuit breaker that stops contacting a persistently
	// failing member until a half-open probe restores it. Nil reproduces
	// the un-resilient client exactly. Set it before the first request;
	// one tracker may be shared across clients.
	Resilience *resilience.Tracker

	requests   atomic.Int64
	infoMu     sync.Mutex
	infoCache  map[string]wire.Info
	infoFlight fanout.Group[wire.Info]
	sessOnce   sync.Once
	sess       *Session // the client's shared consistency session (lazy)
}

// New creates a client over a discovery client and an HTTP client
// (pass http.DefaultClient or a test server's client).
func New(disc *discovery.Client, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{
		disc:               disc,
		http:               httpClient,
		SearchRadiusMeters: 1000,
		infoCache:          make(map[string]wire.Info),
	}
}

// RequestCount returns the number of HTTP requests issued (the fan-out
// metric reported by the experiments). Retries and hedges count: they are
// real load on the federation.
func (c *Client) RequestCount() int64 { return c.requests.Load() }

// available reports whether a server should be included in a fan-out:
// false only while its circuit breaker is open (it rejoins through
// half-open probes once the cooldown elapses).
func (c *Client) available(baseURL string) bool {
	t := c.Resilience
	return t == nil || t.Available(baseURL)
}

// availableAnns drops federation members whose breaker is open before any
// HTTP is issued — the fan-out never waits on a member known to be down.
func (c *Client) availableAnns(anns []discovery.Announcement) []discovery.Announcement {
	if c.Resilience == nil {
		return anns
	}
	out := make([]discovery.Announcement, 0, len(anns))
	for _, a := range anns {
		if c.available(a.URL) {
			out = append(out, a)
		}
	}
	return out
}

// DiscoverV2 exposes raw discovery for applications: every map server
// announced on the location's cell ancestor chain.
func (c *Client) DiscoverV2(ctx context.Context, ll geo.LatLng, opts ...CallOption) []discovery.Announcement {
	ctx = c.withCallOpts(ctx, opts)
	return c.disc.DiscoverCtx(ctx, ll)
}

// withRetryBudget attaches the policy's request-wide retry budget once per
// logical request: a few bad members must not multiply the request's cost
// by MaxAttempts. Multi-stage requests (Route's pricing then leg
// expansion) attach at the top so all stages share one budget.
func (c *Client) withRetryBudget(ctx context.Context) context.Context {
	if t := c.Resilience; t != nil && t.Retry.Budget > 0 && !resilience.HasBudget(ctx) {
		return resilience.WithBudget(ctx, t.Retry.Budget)
	}
	return ctx
}

// perServerCtx applies the per-server timeout — the call-scoped
// WithTimeout override when present, else the client's PerServerTimeout —
// to one server call. The returned cancel must be called when the call
// finishes.
func (c *Client) perServerCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	d := c.PerServerTimeout
	if o := callOptsFrom(ctx); o != nil && o.timeoutSet {
		d = o.timeout
	}
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// forEachServer runs fn over n servers on the client's bounded worker pool,
// giving each call its own per-server timeout. fn records results into
// caller-owned indexed slots; failed or cancelled servers simply leave
// their slot empty (first-error-tolerant merge).
func (c *Client) forEachServer(ctx context.Context, n int, fn func(ctx context.Context, i int)) {
	ctx = c.withRetryBudget(ctx)
	fanout.ForEach(ctx, n, c.MaxConcurrency, func(ctx context.Context, i int) {
		ctx, cancel := c.perServerCtx(ctx)
		defer cancel()
		fn(ctx, i)
	})
}

// call POSTs a JSON request and decodes the response. When a resilience
// tracker is active the attempt runs through it — breaker admission,
// retries, hedging, health reporting; with no tracker it is one plain
// attempt, exactly the pre-resilience client.
func (c *Client) call(ctx context.Context, baseURL, path string, req, resp interface{}) error {
	var body []byte
	var err error
	if t := c.Resilience; t != nil {
		body, err = resilience.Do(ctx, t, baseURL, func(ctx context.Context) ([]byte, error) {
			return c.post(ctx, baseURL, path, req)
		})
	} else {
		body, err = c.post(ctx, baseURL, path, req)
	}
	if err != nil {
		return err
	}
	return json.Unmarshal(body, resp)
}

// post issues one JSON POST attempt and returns the response body.
func (c *Client) post(ctx context.Context, baseURL, path string, req interface{}) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	res, err := c.send(ctx, http.MethodPost, baseURL+path, body, "")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	return io.ReadAll(res.Body)
}

// send issues one HTTP attempt; every request the client makes goes through
// it. It counts the attempt, marks a body as JSON, sets Accept when given and
// asserts the client's identity (§5.3). Every non-200 becomes a
// *resilience.HTTPError so the status survives for failure classification
// (5xx counts against the server's health and is retryable; 4xx is a
// refusal — the server is fine; 429 carries its Retry-After). On success the
// caller owns the response body.
func (c *Client) send(ctx context.Context, method, url string, body []byte, accept string) (*http.Response, error) {
	c.requests.Add(1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if c.User != "" {
		req.Header.Set("X-Flame-User", c.User)
	}
	if c.App != "" {
		req.Header.Set("X-Flame-App", c.App)
	}
	res, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		defer res.Body.Close()
		var e wire.ErrorResponse
		_ = json.NewDecoder(res.Body).Decode(&e)
		return nil, &resilience.HTTPError{
			URL: url, StatusCode: res.StatusCode,
			Msg: e.Error, Session: e.Session,
			RetryAfter: retryAfterHint(res, e),
		}
	}
	return res, nil
}

// retryAfterHint extracts an overloaded server's backoff hint from a 429:
// the Retry-After header (delay-seconds form), falling back to the error
// body's retryAfterSeconds. Zero for every other response — the hint only
// means something on a shed.
func retryAfterHint(res *http.Response, e wire.ErrorResponse) time.Duration {
	if res.StatusCode != wire.StatusOverloaded {
		return 0
	}
	if raw := res.Header.Get(wire.RetryAfterHeader); raw != "" {
		if secs, err := strconv.Atoi(raw); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	if e.RetryAfterSeconds > 0 {
		return time.Duration(e.RetryAfterSeconds) * time.Second
	}
	return 0
}

// InfoV2 fetches (and caches) a server's description. Concurrent fetches
// of the same URL are coalesced into one HTTP request.
func (c *Client) InfoV2(ctx context.Context, baseURL string, opts ...CallOption) (wire.Info, error) {
	if len(opts) > 0 {
		ctx = c.withCallOpts(ctx, opts)
	}
	return c.infoCtx(ctx, baseURL)
}

// infoCtx is the Info core, running under whatever call options the
// context already carries (internal callers — route anchoring, leg
// naming — invoke it mid-call without re-resolving options).
func (c *Client) infoCtx(ctx context.Context, baseURL string) (wire.Info, error) {
	c.infoMu.Lock()
	if info, ok := c.infoCache[baseURL]; ok {
		c.infoMu.Unlock()
		return info, nil
	}
	c.infoMu.Unlock()
	// Only a 200 is cached: a failed fetch is asked again next time.
	fetch := func(ctx context.Context) (wire.Info, error) {
		res, err := c.send(ctx, http.MethodGet, baseURL+"/info", nil, "")
		if err != nil {
			return wire.Info{}, err
		}
		defer res.Body.Close()
		var info wire.Info
		if err := json.NewDecoder(res.Body).Decode(&info); err != nil {
			return wire.Info{}, err
		}
		c.infoMu.Lock()
		c.infoCache[baseURL] = info
		c.infoMu.Unlock()
		return info, nil
	}
	info, err := c.infoFlight.DoCtx(ctx, baseURL, func() (wire.Info, error) {
		return fetch(ctx)
	})
	// The coalesced fetch ran under the leader's context; if it was the
	// leader that got cancelled while our context is live, retry directly.
	// A follower whose own context ends detaches and fails here.
	if err != nil && ctx.Err() == nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		info, err = fetch(ctx)
	}
	if err != nil {
		return wire.Info{}, err
	}
	return info, nil
}

// SearchV2 fans a location-based search out to every server discovered in
// the search region (not just at the query point: "restaurants around me"
// must reach maps the user is not standing inside) and merges the ranked
// results (§5.2). Servers that fail or deny access are skipped.
//
// The discovered servers are planned into replica groups (one request per
// group, sibling failover on error); the groups run concurrently on the
// client's bounded pool and the merge preserves the deterministic plan
// order, so concurrency does not change results. WithMaxServers bounds how
// many groups answer (the E6 recall knob); WithConsistency/WithSession
// make the read sessioned.
func (c *Client) SearchV2(ctx context.Context, query string, near geo.LatLng, limit int, opts ...CallOption) []search.Result {
	ctx = c.withCallOpts(ctx, opts)
	region := s2cell.CapRegion{Cap: geo.Cap{Center: near, RadiusMeters: c.SearchRadiusMeters}}
	anns := c.availableAnns(c.disc.DiscoverRegionCtx(ctx, region))
	groups := planAnnouncements(anns)
	// The E6 knob bounds how many federation members ANSWER: that is the
	// group count — a replica set collapses to one request, so it must
	// consume one slot of the budget, not crowd out distinct regions.
	if o := callOptsFrom(ctx); o.maxServers > 0 && len(groups) > o.maxServers {
		groups = groups[:o.maxServers]
	}
	slots := make([][]search.Result, len(groups))
	c.forEachGroup(ctx, len(groups), func(ctx context.Context, i int) {
		var resp wire.SearchResponse
		req := wire.SearchRequest{
			Query: query, Near: &near,
			MaxDistanceMeters: c.SearchRadiusMeters, Limit: limit,
		}
		if _, err := c.callGroup(ctx, groups[i], "/search", &req, &resp); err != nil {
			return
		}
		slots[i] = resp.Results
	})
	var lists [][]search.Result
	for _, l := range slots {
		if l != nil {
			lists = append(lists, l)
		}
	}
	return search.Merge(lists, limit)
}

// GeocodeV2 resolves a hierarchical address (§5.2): the coarse tail goes
// to the world provider; the specific head is asked of the fine servers
// discovered around the coarse position. The best-scoring result wins. The
// fine fan-out across discovered servers runs concurrently; the coarse
// suffix walk stays sequential (each step depends on the previous miss).
func (c *Client) GeocodeV2(ctx context.Context, address string, opts ...CallOption) (wire.GeocodeResult, error) {
	ctx = c.withCallOpts(ctx, opts)
	ctx = c.withRetryBudget(ctx) // one budget for the coarse walk + fine fan-out
	parts := geocode.ParseAddress(address)
	if len(parts) == 0 {
		return wire.GeocodeResult{}, fmt.Errorf("client: empty address")
	}
	if c.WorldURL == "" {
		return wire.GeocodeResult{}, fmt.Errorf("client: no world geocoder configured")
	}
	// Coarse: try progressively larger suffixes of the address against the
	// world provider until something matches. The coarse score is NOT
	// comparable to full-address scores (it saw fewer tokens), so it only
	// pins the location.
	var coarse wire.GeocodeResult
	found := false
	worldKey := singletonKey("world", c.WorldURL)
	for cut := 1; cut < len(parts)+1 && !found; cut++ {
		tail := join(parts[len(parts)-cut:])
		req := wire.GeocodeRequest{Query: tail, Limit: 1}
		var resp wire.GeocodeResponse
		if err := c.callKeyed(ctx, worldKey, c.WorldURL, "/geocode", &req, &resp); err != nil {
			return wire.GeocodeResult{}, err
		}
		if len(resp.Results) > 0 {
			coarse = resp.Results[0]
			found = true
		}
	}
	if !found {
		return wire.GeocodeResult{}, fmt.Errorf("client: world geocoder found nothing for %q", address)
	}
	// Fine: ask every replica group discovered around the coarse position
	// (the world provider pinned first as its own group) for the FULL
	// address and keep the best full-address score; fall back to the coarse
	// hit.
	groups := []planGroup{{
		Key:      worldKey,
		Replicas: []discovery.Announcement{{Name: "world", URL: c.WorldURL}},
	}}
	var fine []discovery.Announcement
	for _, a := range c.availableAnns(c.disc.DiscoverCtx(ctx, coarse.Position)) {
		if a.URL != c.WorldURL {
			fine = append(fine, a)
		}
	}
	groups = append(groups, planAnnouncements(fine)...)
	slots := make([]*wire.GeocodeResult, len(groups))
	c.forEachGroup(ctx, len(groups), func(ctx context.Context, i int) {
		req := wire.GeocodeRequest{Query: address, Limit: 1}
		var resp wire.GeocodeResponse
		if _, err := c.callGroup(ctx, groups[i], "/geocode", &req, &resp); err != nil {
			return
		}
		if len(resp.Results) > 0 {
			slots[i] = &resp.Results[0]
		}
	})
	// Deterministic merge in plan order: strictly-better score wins, exactly
	// as the sequential loop did.
	var best wire.GeocodeResult
	bestScore := -1.0
	for _, r := range slots {
		if r != nil && r.Score > bestScore {
			best = *r
			bestScore = r.Score
		}
	}
	if bestScore < 0 {
		return coarse, nil
	}
	return best, nil
}

func join(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}

// ReverseGeocodeV2 asks every discovered server and returns the closest
// addressable hit, fanning out to the discovered replica groups
// concurrently (one member per group, sibling failover on error).
func (c *Client) ReverseGeocodeV2(ctx context.Context, ll geo.LatLng, maxMeters float64, opts ...CallOption) (wire.GeocodeResult, bool) {
	ctx = c.withCallOpts(ctx, opts)
	groups := planAnnouncements(c.availableAnns(c.disc.DiscoverCtx(ctx, ll)))
	slots := make([]*wire.GeocodeResult, len(groups))
	c.forEachGroup(ctx, len(groups), func(ctx context.Context, i int) {
		req := wire.RGeocodeRequest{Position: ll, MaxMeters: maxMeters}
		var resp wire.RGeocodeResponse
		if _, err := c.callGroup(ctx, groups[i], "/rgeocode", &req, &resp); err != nil {
			return
		}
		if resp.Found {
			r := resp.Result
			slots[i] = &r
		}
	})
	bestD := maxMeters
	var best wire.GeocodeResult
	found := false
	for _, r := range slots {
		if r == nil {
			continue
		}
		if d := geo.DistanceMeters(ll, r.Position); !found || d < bestD {
			best, bestD, found = *r, d, true
		}
	}
	return best, found
}

// LocalizeV2 sends the cues to every discovered server advertising a
// matching technology and picks the most plausible fix against the prior
// (§5.2). priorSigma <= 0 disables the prior. Every (replica group, cue)
// pair whose technology matches becomes one concurrent call on the bounded
// pool — one replica answers per group, siblings covering for it on error.
func (c *Client) LocalizeV2(ctx context.Context, coarse geo.LatLng, cues []loc.Cue, prior geo.LatLng, priorSigmaMeters float64, opts ...CallOption) (loc.Fix, bool) {
	ctx = c.withCallOpts(ctx, opts)
	// The coarse position may be off by its own sigma (indoor GPS);
	// discover over a cap so the right map is found anyway — at the cost
	// of sometimes reaching "unrelated maps" the selection step rejects
	// (§5.2).
	radius := 2 * priorSigmaMeters
	if radius < 60 {
		radius = 60
	}
	anns := c.availableAnns(c.disc.DiscoverRegionCtx(ctx, s2cell.CapRegion{Cap: geo.Cap{Center: coarse, RadiusMeters: radius}}))
	// Flatten to (group, cue) calls first so the pool sees them all. A
	// replica advertising no technology for the cue is skipped within its
	// group; a group with no matching member contributes no call.
	type callSpec struct {
		group planGroup
		cue   loc.Cue
	}
	var specs []callSpec
	for _, g := range planAnnouncements(anns) {
		for _, cue := range cues {
			sub := planGroup{Key: g.Key}
			for _, a := range g.Replicas {
				if len(a.Technologies) > 0 && !hasTechnology(a.Technologies, cue.Technology) {
					continue
				}
				sub.Replicas = append(sub.Replicas, a)
			}
			if len(sub.Replicas) == 0 {
				continue
			}
			specs = append(specs, callSpec{group: sub, cue: cue})
		}
	}
	slots := make([]*loc.Fix, len(specs))
	c.forEachGroup(ctx, len(specs), func(ctx context.Context, i int) {
		req := wire.LocalizeRequest{Cue: specs[i].cue}
		var resp wire.LocalizeResponse
		if _, err := c.callGroup(ctx, specs[i].group, "/localize", &req, &resp); err != nil {
			return
		}
		if resp.Found {
			f := resp.Fix
			slots[i] = &f
		}
	})
	var fixes []loc.Fix
	for _, f := range slots {
		if f != nil {
			fixes = append(fixes, *f)
		}
	}
	return SelectBestWorld(fixes, prior, priorSigmaMeters)
}

func hasTechnology(ts []loc.Technology, t loc.Technology) bool {
	for _, have := range ts {
		if have == t {
			return true
		}
	}
	return false
}

// SelectBestWorld picks the most plausible fix by confidence weighted with
// agreement to a world-frame prior.
func SelectBestWorld(fixes []loc.Fix, prior geo.LatLng, priorSigmaMeters float64) (loc.Fix, bool) {
	if len(fixes) == 0 {
		return loc.Fix{}, false
	}
	bestIdx := -1
	bestScore := -1.0
	for i, f := range fixes {
		score := f.Confidence
		if priorSigmaMeters > 0 {
			sigma := priorSigmaMeters + f.SigmaMeters + 1
			d := geo.DistanceMeters(f.World, prior)
			score *= gaussian(d, sigma)
		}
		if score > bestScore {
			bestScore, bestIdx = score, i
		}
	}
	return fixes[bestIdx], true
}

func gaussian(d, sigma float64) float64 {
	x := d / sigma
	return math.Exp(-x * x / 2)
}

// TilePNGV2 fetches one tile from a server. Tiles are content-addressed
// (ETag revalidation) rather than session-marked; consistency options are
// accepted for uniformity but impose nothing.
func (c *Client) TilePNGV2(ctx context.Context, baseURL string, z, x, y int, opts ...CallOption) ([]byte, error) {
	if len(opts) > 0 {
		ctx = c.withCallOpts(ctx, opts)
	}
	res, err := c.send(ctx, http.MethodGet, fmt.Sprintf("%s/tiles/%d/%d/%d.png", baseURL, z, x, y), nil, "")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	return io.ReadAll(res.Body)
}
