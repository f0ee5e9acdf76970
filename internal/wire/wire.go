// Package wire defines the JSON API types exchanged between OpenFLAME
// clients and map servers (Figure 2). Both sides import this package, so
// the HTTP contract lives in one place.
package wire

import (
	"encoding/json"

	"openflame/internal/geo"
	"openflame/internal/loc"
	"openflame/internal/search"
)

// Service names a location-based service a map server can expose (§4).
type Service string

// The base services of §4.
const (
	SvcGeocode  Service = "geocode"
	SvcRGeocode Service = "rgeocode"
	SvcSearch   Service = "search"
	SvcRoute    Service = "route"
	SvcLocalize Service = "localize"
	SvcTiles    Service = "tiles"
	// SvcRouteMatrix names the pairwise pricing endpoint. It is not a
	// separately advertised capability: policy-wise it falls under
	// SvcRoute, and servers advertising "route" serve it.
	SvcRouteMatrix Service = "routematrix"
)

// AllServices lists every base service.
func AllServices() []Service {
	return []Service{SvcGeocode, SvcRGeocode, SvcSearch, SvcRoute, SvcLocalize, SvcTiles}
}

// Portal describes a cross-map connection point: a node present (under
// possibly different labels, §2.1) in two maps, identified by a shared
// portal ID. World is the advertising server's belief of its geodetic
// position.
type Portal struct {
	ID     string     `json:"id"`
	NodeID int64      `json:"nodeId"`
	World  geo.LatLng `json:"world"`
	Name   string     `json:"name,omitempty"`
}

// Info describes a map server: its identity, coverage, and capabilities.
// Coverage is the registration covering as cell tokens — the same cells
// the server registers in the discovery DNS (§5.1).
type Info struct {
	Name         string           `json:"name"`
	Coverage     []string         `json:"coverage"`
	Services     []Service        `json:"services"`
	Technologies []loc.Technology `json:"technologies,omitempty"`
	Portals      []Portal         `json:"portals,omitempty"`
	// FrameKind is "geodetic" or "local" (§2.1 heterogeneity).
	FrameKind string `json:"frameKind"`
}

// ReadConsistency is the session-consistency request envelope of the v2
// API: every high-water mark the reader's session holds for this replica
// set. A member asked to honor it must not answer from an older view than
// ANY of them: for each mark it must either BE the origin (same log
// incarnation) at or past Seq, or have pulled that origin's log through
// Seq via anti-entropy. A member positioned behind a mark answers
// StatusStaleReplica (optionally waiting out one anti-entropy round first,
// see mapserver.Config.ConsistencyWait), and the client fails over to a
// sibling — yielding monotonic reads and read-your-writes across replica
// failover. A zero envelope ({}) imposes nothing but still asks the
// server to return its updated mark.
type ReadConsistency struct {
	Marks []SessionMark `json:"marks,omitempty"`
}

// SessionMark is one origin's high-water mark: the server's identity, its
// change-log incarnation, and the log position of the store view the
// answer was computed from (so the mark claims exactly the writes the
// answer reflects). Gen is the map generation (advisory — generations are
// only comparable on the same member; cross-replica comparisons go
// through Origin+Log+Seq).
type SessionMark struct {
	Origin string `json:"origin"`
	// Log identifies the origin's change-log INCARNATION (drawn at store
	// construction): positions from different incarnations are
	// incomparable, so a restarted origin's fresh log can never be vouched
	// for by positions recorded against the old one. 0 = minted by a
	// pre-incarnation peer (positions compared optimistically).
	Log uint64 `json:"log,omitempty"`
	Seq uint64 `json:"seq"`
	Gen uint64 `json:"gen,omitempty"`
}

// ConsistencyEnvelope is embedded in every read request: the optional
// session-consistency field rides inside the request body, so it crosses
// batch boundaries intact (each BatchItem body is a full request). Absent
// (nil) it marshals to nothing — legacy requests are byte-identical.
type ConsistencyEnvelope struct {
	Consistency *ReadConsistency `json:"consistency,omitempty"`
}

// SetConsistency attaches the session envelope (nil detaches it).
func (e *ConsistencyEnvelope) SetConsistency(rc *ReadConsistency) { e.Consistency = rc }

// TakeConsistency detaches and returns the envelope — servers strip it
// before computing so cache keys and ETags of the underlying query are
// unaffected by who is asking at what mark.
func (e *ConsistencyEnvelope) TakeConsistency() *ReadConsistency {
	rc := e.Consistency
	e.Consistency = nil
	return rc
}

// ConsistencyCarrier is implemented (via ConsistencyEnvelope) by every
// read request type.
type ConsistencyCarrier interface {
	SetConsistency(*ReadConsistency)
	TakeConsistency() *ReadConsistency
}

// SessionEnvelope is embedded in every read response; Session is set only
// when the request carried a ConsistencyEnvelope, so legacy responses are
// byte-identical.
type SessionEnvelope struct {
	Session *SessionMark `json:"session,omitempty"`
}

// GetSession returns the response's session mark (nil on legacy reads).
func (e *SessionEnvelope) GetSession() *SessionMark { return e.Session }

// SetSession attaches the answering server's mark.
func (e *SessionEnvelope) SetSession(m *SessionMark) { e.Session = m }

// SessionCarrier is implemented (via SessionEnvelope) by every read
// response type.
type SessionCarrier interface {
	GetSession() *SessionMark
	SetSession(*SessionMark)
}

// StatusStaleReplica is the HTTP status of the "stale replica" error: the
// request's ReadConsistency names a state this member has not caught up to.
// It is a 4xx — the member is healthy, merely lagging — so resilience
// layers treat it as a refusal (no health damage, no retry against the same
// member); the client's query plan fails over to a replica-set sibling.
const StatusStaleReplica = 412 // http.StatusPreconditionFailed

// StatusOverloaded is the HTTP status of a load-shed request: the server's
// admission controller refused it before any decode or compute, and the
// response carries a Retry-After header (mirrored in the ErrorResponse
// envelope) naming the backoff the server asks for. Like the stale-replica
// refusal it is a 4xx about THIS request, not about the server's liveness:
// an overloaded member is emphatically alive — resilience layers must not
// open its breaker, and the client's plan sheds the load to a sibling (or
// retries after the hint) instead of marking the member dead.
const StatusOverloaded = 429 // http.StatusTooManyRequests

// RetryAfterHeader is the standard header carrying the shed backoff hint,
// in integral seconds (the HTTP delay-seconds form).
const RetryAfterHeader = "Retry-After"

// GeocodeRequest resolves a textual address.
type GeocodeRequest struct {
	ConsistencyEnvelope
	Query string `json:"query"`
	Limit int    `json:"limit,omitempty"`
}

// GeocodeResult is one forward-geocode hit.
type GeocodeResult struct {
	NodeID   int64      `json:"nodeId"`
	Name     string     `json:"name"`
	Position geo.LatLng `json:"position"`
	Score    float64    `json:"score"`
	Address  string     `json:"address,omitempty"`
}

// GeocodeResponse carries forward-geocode hits, best first.
type GeocodeResponse struct {
	SessionEnvelope
	Results []GeocodeResult `json:"results"`
}

// RGeocodeRequest resolves a position to the nearest addressable node.
type RGeocodeRequest struct {
	ConsistencyEnvelope
	Position  geo.LatLng `json:"position"`
	MaxMeters float64    `json:"maxMeters,omitempty"`
}

// RGeocodeResponse carries the reverse-geocode hit, if any.
type RGeocodeResponse struct {
	SessionEnvelope
	Found  bool          `json:"found"`
	Result GeocodeResult `json:"result,omitempty"`
}

// SearchRequest is a location-based search (§4).
type SearchRequest struct {
	ConsistencyEnvelope
	Query             string      `json:"query"`
	Near              *geo.LatLng `json:"near,omitempty"`
	MaxDistanceMeters float64     `json:"maxDistanceMeters,omitempty"`
	Limit             int         `json:"limit,omitempty"`
}

// SearchResponse carries ranked hits.
type SearchResponse struct {
	SessionEnvelope
	Results []search.Result `json:"results"`
}

// RouteMetric selects what a route optimizes (§4: "the path usually
// optimizes a metric such as distance, travel time, …").
type RouteMetric string

// Supported route metrics.
const (
	MetricTime     RouteMetric = "time"     // default: seconds by profile speed
	MetricDistance RouteMetric = "distance" // meters, speed-agnostic
)

// RouteRequest asks for a path between two positions within the server's
// map (the client stitches across servers, §5.2). If FromNode/ToNode are
// non-zero they override position snapping.
type RouteRequest struct {
	ConsistencyEnvelope
	From     geo.LatLng  `json:"from"`
	To       geo.LatLng  `json:"to"`
	FromNode int64       `json:"fromNode,omitempty"`
	ToNode   int64       `json:"toNode,omitempty"`
	Metric   RouteMetric `json:"metric,omitempty"`
}

// RoutePoint is one step of a returned route.
type RoutePoint struct {
	NodeID   int64      `json:"nodeId"`
	Position geo.LatLng `json:"position"`
}

// RouteResponse carries the in-map route.
type RouteResponse struct {
	SessionEnvelope
	Found        bool         `json:"found"`
	Points       []RoutePoint `json:"points,omitempty"`
	CostSeconds  float64      `json:"costSeconds"`
	LengthMeters float64      `json:"lengthMeters"`
}

// RouteMatrixRequest asks for pairwise route costs — used by the client's
// portal meta-graph to price legs with one round trip. Endpoints are node
// IDs or positions the server snaps (a position entry is used where the
// corresponding node ID is zero).
type RouteMatrixRequest struct {
	ConsistencyEnvelope
	FromNodes     []int64      `json:"fromNodes"`
	ToNodes       []int64      `json:"toNodes"`
	FromPositions []geo.LatLng `json:"fromPositions,omitempty"`
	ToPositions   []geo.LatLng `json:"toPositions,omitempty"`
}

// RouteMatrixResponse carries CostSeconds[i][j] for FromNodes[i]→ToNodes[j];
// unreachable pairs hold a negative value.
type RouteMatrixResponse struct {
	SessionEnvelope
	CostSeconds [][]float64 `json:"costSeconds"`
}

// LocalizeRequest submits sensor cues for localization (§5.2).
type LocalizeRequest struct {
	ConsistencyEnvelope
	Cue loc.Cue `json:"cue"`
}

// LocalizeResponse carries the server's fix, if it could localize.
type LocalizeResponse struct {
	SessionEnvelope
	Found bool    `json:"found"`
	Fix   loc.Fix `json:"fix,omitempty"`
}

// ErrorResponse is returned with non-2xx statuses. StatusStaleReplica
// refusals additionally carry the refusing server's CURRENT mark: when
// the refuser IS the origin of a held mark and its log incarnation
// differs, the client learns the held incarnation is dead — its writes
// are unrecoverable — and replaces the mark instead of demanding the
// impossible forever.
type ErrorResponse struct {
	Error   string       `json:"error"`
	Session *SessionMark `json:"session,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on StatusOverloaded
	// refusals, for consumers that only see the JSON envelope.
	RetryAfterSeconds int `json:"retryAfterSeconds,omitempty"`
}

// SvcChanges names the replication endpoint (GET /v1/changes). It is not a
// base service of §4 and is not advertised in discovery: replicas of the
// same operator use it to pull anti-entropy from their siblings.
const SvcChanges Service = "changes"

// Change is one sequence-numbered inventory update in a server's change
// log: the node's tags were replaced wholesale with Tags. Ver is the
// node's update version at the origin — receivers apply a change only if
// it is newer than what they hold, so a replica's echo of an old value
// can never roll back a newer write. An equal version (0 included, as an
// omitted field decodes) is a concurrent write: every receiver keeps the
// canonically larger tag set.
type Change struct {
	Seq    uint64            `json:"seq"`
	NodeID int64             `json:"nodeId"`
	Tags   map[string]string `json:"tags"`
	Ver    uint64            `json:"ver,omitempty"`
}

// MaxChangesPerPull bounds one /v1/changes response; a replica further
// behind keeps pulling until its cursor reaches the head Seq.
const MaxChangesPerPull = 256

// ChangesResponse answers GET /v1/changes?since=N: every logged change
// with Seq > N (at most MaxChangesPerPull, oldest first), the server's
// current head position, and the oldest sequence number still retained.
// A puller whose cursor predates FirstSeq missed compacted history; the
// sync layer's idempotent tag application converges it on the changes that
// remain.
type ChangesResponse struct {
	Seq      uint64   `json:"seq"`
	FirstSeq uint64   `json:"firstSeq"`
	Changes  []Change `json:"changes,omitempty"`
	// Name identifies the answering server — the Origin a sync cursor over
	// this log positions. Pullers record "I have consumed Name's log through
	// seq N" and can then vouch for session marks minted by Name (absent on
	// pre-session peers; their logs simply cannot vouch for marks).
	Name string `json:"name,omitempty"`
	// LogID identifies this log's incarnation. A puller observing it change
	// between pulls knows the peer restarted with a fresh log — even if the
	// new head has already overtaken the old cursor — and restarts its
	// drain from zero, discarding positions against the old incarnation.
	LogID uint64 `json:"logId,omitempty"`
}

// MaxBatchItems bounds one batch request; servers reject larger batches
// outright so a single POST cannot queue unbounded compute.
const MaxBatchItems = 64

// BatchItem is one sub-request of a batched call: the service to invoke
// and its request body, encoded exactly as it would be POSTed to the
// service's own endpoint.
type BatchItem struct {
	Service Service         `json:"service"`
	Body    json.RawMessage `json:"body,omitempty"`
}

// BatchRequest carries up to MaxBatchItems heterogeneous sub-requests that
// the server executes in one round trip (POST /v1/batch). Items are
// independent: one failing does not affect the others.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchItemResult is one sub-request's outcome. Status carries the HTTP
// status the sub-request would have received on its own endpoint (200 with
// Body set, or 400/403/404 with Error set) — per-sub-request status, so a
// partially failing batch still returns every successful answer.
type BatchItemResult struct {
	Status int             `json:"status"`
	Error  string          `json:"error,omitempty"`
	Body   json.RawMessage `json:"body,omitempty"`
}

// BatchResponse answers a batch: one result per item, index-aligned with
// the request. Every item is answered from one store view, and Generation
// is that view's map generation: each answer reflects exactly the writes
// of this generation.
type BatchResponse struct {
	Generation uint64            `json:"generation"`
	Results    []BatchItemResult `json:"results"`
}
