// Package mapserver implements the paper's map server (§3): "a system that
// stores the map of a region and provides services such as search and
// routing on the map". One Server wraps one osm.Map with its spatial store,
// routing graph, geocoder, searcher, localizers, and tile renderer, and
// exposes them over HTTP with the fine-grained security policies of §5.3.
package mapserver

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"openflame/internal/admission"
	"openflame/internal/align"
	"openflame/internal/discovery"
	"openflame/internal/geo"
	"openflame/internal/geocode"
	"openflame/internal/graph"
	"openflame/internal/loc"
	"openflame/internal/osm"
	"openflame/internal/s2cell"
	"openflame/internal/search"
	"openflame/internal/store"
	"openflame/internal/tiles"
	"openflame/internal/watch"
	"openflame/internal/wire"
)

// Config assembles a map server.
type Config struct {
	// Name identifies the server (and its DNS registration).
	Name string
	// Map is the served map.
	Map *osm.Map
	// Store, when non-nil, is a pre-built index over Map (e.g. attached
	// from a persisted snapshot index via store.NewWithIndex) that the
	// server adopts instead of running the full store.New rebuild. It must
	// index exactly Map. After New, node content is read only through the
	// store's views: Map itself never sees a write.
	Store *store.Store
	// UseCH preprocesses the routing graph into a contraction hierarchy.
	UseCH bool
	// Alignment precisely relates a local-frame map to the world (§5.2);
	// nil falls back to the map's coarse anchor.
	Alignment *align.GeoAlignment
	// Beacons/Fiducials/Landmarks enable the localization technologies
	// (§4): RSSI fingerprinting, fiducial tags, and image landmarks.
	Beacons   []loc.Beacon
	Fiducials []loc.Fiducial
	Landmarks []loc.Landmark
	// Auth is the access policy; nil means fully public.
	Auth *Policy
	// QueryCacheEntries, when > 0, enables the generation-keyed query
	// result cache (search, geocode, rgeocode, route, route-matrix, tiles)
	// with that many entries, LRU-evicted. Zero disables the cache, reproducing
	// the uncached server exactly.
	QueryCacheEntries int
	// ConsistencyWait bounds how long a read carrying a session mark this
	// replica has not caught up to may wait for anti-entropy before
	// answering wire.StatusStaleReplica. Zero answers stale immediately
	// (the client fails over to a sibling); a value around one sync
	// interval lets a barely-lagging replica absorb the read instead.
	ConsistencyWait time.Duration
	// MaxInFlight, when > 0, enables the admission controller on the HTTP
	// serving path: at most this many service requests execute
	// concurrently, as many more wait up to admission.DefaultQueueWait for
	// a slot, and everything past that is shed with wire.StatusOverloaded +
	// Retry-After BEFORE its body is read or decoded. Zero disables
	// admission, reproducing the ungated server exactly. /info, /healthz
	// and /v1/changes stay ungated: liveness checks and sibling
	// anti-entropy must keep working through an overload.
	MaxInFlight int
}

// maxBodyBytes caps a request body at 1 MiB: far above any legitimate
// service request (point queries, route endpoints, localization cues)
// while bounding the memory one connection can pin. An oversize POST is
// refused with 413 after reading at most the cap, never buffered whole.
const maxBodyBytes = 1 << 20

// coveragePadMeters pads the registration region derived from the map
// bounds, modelling fuzzy boundaries (§3).
const coveragePadMeters = 25

// fingerprintStepMeters is the radio survey grid pitch.
const fingerprintStepMeters = 2

// Server is a running map server (pre-HTTP; see Handler for the HTTP face).
type Server struct {
	cfg      Config
	store    *store.Store
	g        *graph.Graph
	gDist    *graph.Graph // distance-weighted variant for MetricDistance
	fpdb     *loc.FingerprintDB
	fiducial *loc.FiducialIndex
	visual   *loc.VisualIndex
	qcache   *queryCache
	coverage []s2cell.CellID
	portals  []wire.Portal
	auth     *Policy

	// adm gates the HTTP serving path (nil = admission off); shed is its
	// pre-rendered 429.
	adm  *admission.Controller
	shed shedResponse

	// hub is the watch subscription registry (one change-log drain feeding
	// every watcher, see internal/watch); watchShed is its pre-rendered 429,
	// built unconditionally because the watcher bound exists even when
	// request admission is off.
	hub       *watch.Hub
	watchShed shedResponse
	// watchPing is the keepalive cadence on idle watch streams.
	watchPing time.Duration

	// chTime/chDist hold the contraction hierarchies over the time- and
	// distance-weighted graphs. They are built in the background at
	// construction and swapped in atomically: until then both are nil and
	// every routing query falls back to bidirectional Dijkstra, so a server
	// answers from its very first request. chReady closes when the build
	// goroutine finishes (immediately when UseCH is off).
	chTime  atomic.Pointer[graph.CH]
	chDist  atomic.Pointer[graph.CH]
	chReady chan struct{}

	// syncMu guards syncPos: how far this server has consumed each named
	// sibling's change log (origin name → log incarnation + last applied
	// seq), recorded by the Syncer. It is what lets this replica vouch for
	// session marks minted elsewhere in the set.
	syncMu  sync.RWMutex
	syncPos map[string]syncPosition
}

// syncPosition is one origin's consumed log position: the incarnation it
// belongs to and the last applied sequence number within it.
type syncPosition struct {
	log uint64
	seq uint64
}

// New builds a server from the config.
func New(cfg Config) (*Server, error) {
	if cfg.Map == nil {
		return nil, fmt.Errorf("mapserver: nil map")
	}
	if cfg.Name == "" {
		cfg.Name = cfg.Map.Name
	}
	s := &Server{cfg: cfg, auth: cfg.Auth, syncPos: make(map[string]syncPosition), watchPing: watchPingInterval}
	if cfg.MaxInFlight > 0 {
		s.adm = admission.New(admission.Config{MaxInFlight: cfg.MaxInFlight})
	}
	var err error
	if s.shed, err = renderShed("overloaded: request shed, retry later", admission.DefaultRetryAfter); err != nil {
		return nil, err
	}
	if s.watchShed, err = renderShed("overloaded: watcher limit reached, retry later", admission.DefaultRetryAfter); err != nil {
		return nil, err
	}
	if cfg.Store != nil {
		s.store = cfg.Store
	} else {
		s.store = store.New(cfg.Map)
	}
	s.g = graph.FromOSM(cfg.Map, graph.FootProfile)
	s.gDist = graph.FromOSM(cfg.Map, graph.DistanceProfile(graph.FootProfile))
	s.chReady = make(chan struct{})
	if cfg.UseCH {
		// Preprocess both metrics in the background; the server serves
		// bidirectional Dijkstra until each hierarchy swaps in. The routing
		// graphs are immutable after FromOSM (inventory updates touch tags
		// only), so the build goroutine needs no locking.
		go func() {
			s.chTime.Store(graph.BuildCH(s.g))
			s.chDist.Store(graph.BuildCH(s.gDist))
			close(s.chReady)
		}()
	} else {
		close(s.chReady)
	}

	// The registration level range is the discovery protocol's: a client
	// sweeps exactly DefaultMinLevel..DefaultMaxLevel, so a cell outside it
	// would be published and never found.
	v := s.store.View()
	region := s2cell.RectRegion{Rect: v.Bounds().ExpandedMeters(coveragePadMeters)}
	s.coverage = s2cell.RegistrationCovering(region, discovery.DefaultMinLevel, discovery.DefaultMaxLevel)

	if len(cfg.Beacons) > 0 {
		min, max := localBounds(cfg.Map, cfg.Beacons)
		fpdb, err := loc.BuildFingerprintDB(cfg.Beacons, min, max, fingerprintStepMeters, loc.DefaultRadioModel())
		if err != nil {
			return nil, fmt.Errorf("mapserver: fingerprint survey: %w", err)
		}
		s.fpdb = fpdb
	}
	if len(cfg.Fiducials) > 0 {
		s.fiducial = loc.NewFiducialIndex(cfg.Fiducials)
	}
	if len(cfg.Landmarks) > 0 {
		s.visual = loc.NewVisualIndex(cfg.Landmarks)
	}
	if cfg.QueryCacheEntries > 0 {
		s.qcache = newQueryCache(cfg.QueryCacheEntries)
	}

	// The watch hub drains the store's change log once for every watcher
	// and evaluates standing queries through the generation-keyed query
	// cache, so a delta batch touching K groups of one hot tile still
	// computes once.
	s.hub = watch.New(watch.Config{
		Source: storeSource{st: s.store},
		Eval:   s.watchEval,
		Mark:   s.markAt,
	})

	// Portals: nodes tagged flame:portal, advertised with world positions.
	// The store's reserved portal posting list replaces the old full-map
	// walk — O(portals) off the index, which on an attached server means no
	// node pages are touched at all. A portal ID claimed by several nodes
	// resolves to the highest node ID; the advertised list is sorted by
	// portal ID.
	byPortal := make(map[string]*osm.Node)
	for _, nid := range v.PortalNodeIDs() {
		if n := v.Map().Node(nid); n != nil {
			byPortal[n.Tags.Get(osm.TagPortalID)] = n
		}
	}
	ids := make([]string, 0, len(byPortal))
	for id := range byPortal {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		n := byPortal[id]
		s.portals = append(s.portals, wire.Portal{
			ID:     id,
			NodeID: int64(n.ID),
			World:  s.worldPos(n),
			Name:   n.Tags.Get(osm.TagName),
		})
	}
	return s, nil
}

// localBounds returns the local-frame rectangle spanning the map's nodes
// and beacons, for the fingerprint survey.
func localBounds(m *osm.Map, beacons []loc.Beacon) (geo.Point, geo.Point) {
	min := geo.Point{X: math.Inf(1), Y: math.Inf(1)}
	max := geo.Point{X: math.Inf(-1), Y: math.Inf(-1)}
	upd := func(p geo.Point) {
		min.X = math.Min(min.X, p.X)
		min.Y = math.Min(min.Y, p.Y)
		max.X = math.Max(max.X, p.X)
		max.Y = math.Max(max.Y, p.Y)
	}
	m.Nodes(func(n *osm.Node) bool {
		upd(m.LocalPosition(n))
		return true
	})
	for _, b := range beacons {
		upd(b.Pos)
	}
	return min, max
}

// worldPos returns the node's best-known geodetic position: through the
// precise alignment when available, else the frame-coarse estimate.
func (s *Server) worldPos(n *osm.Node) geo.LatLng {
	if s.cfg.Alignment != nil && s.cfg.Map.Frame.Kind == osm.FrameLocal {
		return s.cfg.Alignment.ToWorld(n.Local)
	}
	return s.cfg.Map.NodePosition(n)
}

// Name returns the server's name.
func (s *Server) Name() string { return s.cfg.Name }

// Store exposes the underlying spatial store (read-mostly; used by
// higher-level assembly and tests).
func (s *Server) Store() *store.Store { return s.store }

// Graph exposes the routing graph.
func (s *Server) Graph() *graph.Graph { return s.g }

// Coverage returns the DNS registration covering.
func (s *Server) Coverage() []s2cell.CellID { return s.coverage }

// Info describes the server (§5.1 discovery payload → §4 services).
func (s *Server) Info() wire.Info {
	info := wire.Info{
		Name:     s.cfg.Name,
		Services: wire.AllServices(),
		Portals:  s.portals,
	}
	for _, c := range s.coverage {
		info.Coverage = append(info.Coverage, c.Token())
	}
	if s.fpdb != nil {
		info.Technologies = append(info.Technologies, loc.TechWiFiRSSI)
	}
	if s.fiducial != nil {
		info.Technologies = append(info.Technologies, loc.TechFiducial)
	}
	if s.visual != nil {
		info.Technologies = append(info.Technologies, loc.TechVisual)
	}
	if s.cfg.Map.Frame.Kind == osm.FrameLocal {
		info.FrameKind = "local"
	} else {
		info.FrameKind = "geodetic"
	}
	return info
}

// AdmissionStats snapshots the admission controller's counters (zero value
// when admission is off).
func (s *Server) AdmissionStats() admission.Stats { return s.adm.Stats() }

// Geocode answers a forward-geocode request (through the query cache when
// one is configured; like all cached services, the response must be
// treated as immutable by callers).
func (s *Server) Geocode(req wire.GeocodeRequest) wire.GeocodeResponse {
	return cachedQuery(context.Background(), s, s.store.View(), wire.SvcGeocode, req, s.geocodeUncached)
}

func (s *Server) geocodeUncached(v *store.View, req wire.GeocodeRequest) wire.GeocodeResponse {
	var resp wire.GeocodeResponse
	for _, r := range geocode.New(v).Forward(req.Query, req.Limit) {
		resp.Results = append(resp.Results, s.toWireGeocode(v, r))
	}
	return resp
}

func (s *Server) toWireGeocode(v *store.View, r geocode.Result) wire.GeocodeResult {
	out := wire.GeocodeResult{
		NodeID: int64(r.NodeID), Name: r.Name, Position: r.Position,
		Score: r.Score, Address: r.Address,
	}
	// Correct local-frame positions through the alignment.
	if n := v.Map().Node(r.NodeID); n != nil {
		out.Position = s.worldPos(n)
	}
	return out
}

// RGeocode answers a reverse-geocode request.
func (s *Server) RGeocode(req wire.RGeocodeRequest) wire.RGeocodeResponse {
	return cachedQuery(context.Background(), s, s.store.View(), wire.SvcRGeocode, req, s.rgeocodeUncached)
}

func (s *Server) rgeocodeUncached(v *store.View, req wire.RGeocodeRequest) wire.RGeocodeResponse {
	max := req.MaxMeters
	if max <= 0 {
		max = 250
	}
	r, ok := geocode.New(v).Reverse(req.Position, max)
	if !ok {
		return wire.RGeocodeResponse{}
	}
	return wire.RGeocodeResponse{Found: true, Result: s.toWireGeocode(v, r)}
}

// Search answers a location-based search, tagging results with the server
// name so the client can attribute merged results (§5.2).
func (s *Server) Search(req wire.SearchRequest) wire.SearchResponse {
	return cachedQuery(context.Background(), s, s.store.View(), wire.SvcSearch, req, s.searchUncached)
}

func (s *Server) searchUncached(v *store.View, req wire.SearchRequest) wire.SearchResponse {
	opt := search.Options{
		Near:              req.Near,
		MaxDistanceMeters: req.MaxDistanceMeters,
		Limit:             req.Limit,
	}
	results := search.New(v).Search(req.Query, opt)
	for i := range results {
		results[i].Source = s.cfg.Name
		if n := v.Map().Node(results[i].NodeID); n != nil {
			results[i].Position = s.worldPos(n)
		}
	}
	return wire.SearchResponse{Results: results}
}

// snapNode finds the routing-graph node to start from for a position.
func (s *Server) snapNode(v *store.View, ll geo.LatLng) (int64, bool) {
	if snap, ok := v.SnapToWay(ll, 250); ok && s.g.HasNode(int64(snap.NodeID)) {
		return int64(snap.NodeID), true
	}
	// Fall back to the nearest graph node.
	for _, hit := range v.NearestNodes(ll, 16, 500) {
		if s.g.HasNode(int64(hit.Node.ID)) {
			return int64(hit.Node.ID), true
		}
	}
	return 0, false
}

// Route answers an in-map routing request (§5.2: each server calculates the
// route relevant to the region it covers).
func (s *Server) Route(req wire.RouteRequest) wire.RouteResponse {
	return cachedQuery(context.Background(), s, s.store.View(), wire.SvcRoute, req, s.routeUncached)
}

func (s *Server) routeUncached(v *store.View, req wire.RouteRequest) wire.RouteResponse {
	from := req.FromNode
	to := req.ToNode
	if from == 0 {
		id, ok := s.snapNode(v, req.From)
		if !ok {
			return wire.RouteResponse{}
		}
		from = id
	}
	if to == 0 {
		id, ok := s.snapNode(v, req.To)
		if !ok {
			return wire.RouteResponse{}
		}
		to = id
	}
	var p graph.Path
	var err error
	if req.Metric == wire.MetricDistance {
		p, err = s.queryDist(from, to)
	} else {
		p, err = s.query(from, to)
	}
	if err != nil {
		return wire.RouteResponse{}
	}
	resp := wire.RouteResponse{Found: true, CostSeconds: p.Cost}
	if req.Metric == wire.MetricDistance {
		// Cost is meters for this metric; report it as length and derive
		// a walking-time estimate.
		resp.CostSeconds = p.Cost / 1.4
	}
	for _, id := range p.Nodes {
		n := v.Map().Node(osm.NodeID(id))
		if n == nil {
			continue
		}
		resp.Points = append(resp.Points, wire.RoutePoint{NodeID: id, Position: s.worldPos(n)})
	}
	for i := 1; i < len(resp.Points); i++ {
		resp.LengthMeters += geo.DistanceMeters(resp.Points[i-1].Position, resp.Points[i].Position)
	}
	return resp
}

func (s *Server) query(from, to int64) (graph.Path, error) {
	if ch := s.chTime.Load(); ch != nil {
		return ch.Query(from, to)
	}
	return s.g.BiDijkstra(from, to)
}

func (s *Server) queryDist(from, to int64) (graph.Path, error) {
	if ch := s.chDist.Load(); ch != nil {
		return ch.Query(from, to)
	}
	return s.gDist.BiDijkstra(from, to)
}

// WaitCH blocks until the background hierarchy build finishes or the
// context expires. Servers answer from their very first request either way
// (falling back to bidirectional Dijkstra until the swap), so only callers
// needing deterministic query behavior — tests, benchmarks — wait.
func (s *Server) WaitCH(ctx context.Context) error {
	select {
	case <-s.chReady:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CHActive reports whether routing queries are currently answered by the
// contraction hierarchy (false while the background build is in flight or
// when Config.UseCH is off).
func (s *Server) CHActive() bool { return s.chTime.Load() != nil }

// RouteMatrix prices all from×to pairs; unreachable pairs are -1. Where a
// node ID is zero, the corresponding position (if provided) is snapped.
func (s *Server) RouteMatrix(req wire.RouteMatrixRequest) wire.RouteMatrixResponse {
	return cachedQuery(context.Background(), s, s.store.View(), wire.SvcRouteMatrix, req, s.routeMatrixUncached)
}

func (s *Server) routeMatrixUncached(v *store.View, req wire.RouteMatrixRequest) wire.RouteMatrixResponse {
	resolve := func(ids []int64, positions []geo.LatLng) []int64 {
		out := make([]int64, len(ids))
		for i, id := range ids {
			if id != 0 {
				out[i] = id
				continue
			}
			if i < len(positions) {
				if snapped, ok := s.snapNode(v, positions[i]); ok {
					out[i] = snapped
					continue
				}
			}
			out[i] = -1 // unresolvable
		}
		return out
	}
	// Positions-only requests may omit the node slices.
	fromIDs := req.FromNodes
	if len(fromIDs) == 0 && len(req.FromPositions) > 0 {
		fromIDs = make([]int64, len(req.FromPositions))
	}
	toIDs := req.ToNodes
	if len(toIDs) == 0 && len(req.ToPositions) > 0 {
		toIDs = make([]int64, len(req.ToPositions))
	}
	from := resolve(fromIDs, req.FromPositions)
	to := resolve(toIDs, req.ToPositions)
	// Price all pairs at once: the bucket-based many-to-many CH query when
	// the hierarchy is up (k_s+k_t sweeps instead of k_s×k_t point-to-point
	// queries), else one truncated Dijkstra per source. Unresolvable
	// endpoints (-1) never match a graph node, so their cells stay +Inf and
	// fold into the wire's -1 convention below.
	var costs [][]float64
	if ch := s.chTime.Load(); ch != nil {
		costs = ch.Matrix(from, to)
	} else {
		costs = s.g.MatrixCosts(from, to)
	}
	resp := wire.RouteMatrixResponse{CostSeconds: make([][]float64, len(from))}
	for i, f := range from {
		resp.CostSeconds[i] = make([]float64, len(to))
		for j, t := range to {
			switch {
			case f < 0 || t < 0:
				resp.CostSeconds[i][j] = -1
			case f == t:
				resp.CostSeconds[i][j] = 0
			case math.IsInf(costs[i][j], 1):
				resp.CostSeconds[i][j] = -1
			default:
				resp.CostSeconds[i][j] = costs[i][j]
			}
		}
	}
	return resp
}

// Localize answers a localization request with whichever advertised
// technology matches the cue (§5.2).
func (s *Server) Localize(req wire.LocalizeRequest) wire.LocalizeResponse {
	var fix loc.Fix
	var ok bool
	switch req.Cue.Technology {
	case loc.TechWiFiRSSI:
		if s.fpdb != nil {
			fix, ok = s.fpdb.Localize(req.Cue)
		}
	case loc.TechFiducial:
		if s.fiducial != nil {
			fix, ok = s.fiducial.Localize(req.Cue)
		}
	case loc.TechVisual:
		if s.visual != nil {
			fix, ok = s.visual.Localize(req.Cue)
		}
	}
	if !ok {
		return wire.LocalizeResponse{}
	}
	fix.Source = s.cfg.Name
	fix.World = s.localToWorld(fix.Local)
	return wire.LocalizeResponse{Found: true, Fix: fix}
}

func (s *Server) localToWorld(p geo.Point) geo.LatLng {
	if s.cfg.Alignment != nil {
		return s.cfg.Alignment.ToWorld(p)
	}
	// Through the coarse frame.
	n := &osm.Node{Local: p}
	return s.cfg.Map.NodePosition(n)
}

// Tile answers the PNG tile c from the current view. A coordinate that
// names no tile is an error and never reaches the cache.
func (s *Server) Tile(c tiles.Coord) ([]byte, error) {
	if !c.Valid() {
		return nil, fmt.Errorf("mapserver: tile %v out of range", c)
	}
	return s.tileAt(context.Background(), s.store.View(), c)
}

// tileAt renders tile c (which must be Valid) from the pinned view v's map,
// memoized in the query cache under v's generation like every other read.
func (s *Server) tileAt(ctx context.Context, v *store.View, c tiles.Coord) ([]byte, error) {
	return cachedResult(ctx, s, v, wire.SvcTiles, c, func(v *store.View, c tiles.Coord) ([]byte, error) {
		return tiles.NewRenderer(v.Map(), tiles.DefaultStyle()).RenderPNG(c)
	})
}

// Portals returns the server's advertised portals.
func (s *Server) Portals() []wire.Portal { return s.portals }

// Generation returns the current view's map generation — the version every
// cached read is keyed on and the value of the X-Flame-Generation response
// header.
func (s *Server) Generation() uint64 { return s.store.View().Gen }

// ApplyInventoryUpdate changes a node's tags (e.g. restocking a shelf) —
// the independent map management the paper motivates (§1): no coordination
// with any central authority. The write retires every cached read derived
// from the old map — query results and rendered tiles alike — so the next
// fetch computes over the new view instead of serving stale content. The
// update is appended to the store's change log, from which sibling
// replicas pull anti-entropy (GET /v1/changes).
func (s *Server) ApplyInventoryUpdate(id osm.NodeID, tags osm.Tags) bool {
	return s.write(func() bool { return s.store.UpdateNodeTags(id, tags) })
}

// write runs one store write and, when it applied, purges every cache entry
// from the generations it superseded (the generation key already keeps
// them from hitting; purging returns their LRU slots at once).
func (s *Server) write(apply func() bool) bool {
	if !apply() {
		return false
	}
	if s.qcache != nil {
		s.qcache.purgeBefore(s.Generation())
	}
	return true
}

// ChangeSeq returns the server's inventory-update log head — the
// "Generation-equivalent" position replicas compare after anti-entropy
// (Generation itself also counts structural mutations and differs between
// independently-built replicas).
func (s *Server) ChangeSeq() uint64 { return s.store.View().Seq }

// NoteSyncPosition records that this server has applied the named
// origin's change log (incarnation log) through seq — called by the
// Syncer after each successful drain, and the evidence FreshAt uses to
// vouch for session marks minted by that origin. Within one incarnation
// positions only move forward; a NEW incarnation (the origin restarted
// with a fresh log, detected via wire.ChangesResponse.LogID or, for
// incarnation-less peers, via head regression — restarted=true) replaces
// the old position outright, downward included: positions against a dead
// incarnation vouch for nothing.
func (s *Server) NoteSyncPosition(origin string, log, seq uint64, restarted bool) {
	if origin == "" || origin == s.cfg.Name {
		return
	}
	s.syncMu.Lock()
	cur, ok := s.syncPos[origin]
	if !ok || restarted || cur.log != log || seq > cur.seq {
		s.syncPos[origin] = syncPosition{log: log, seq: seq}
	}
	s.syncMu.Unlock()
}

// SyncPosition returns how far this server has consumed the named
// origin's change log: the incarnation it tracked and the position within
// it (zeros = never synced from it).
func (s *Server) SyncPosition(origin string) (log, seq uint64) {
	s.syncMu.RLock()
	defer s.syncMu.RUnlock()
	p := s.syncPos[origin]
	return p.log, p.seq
}

// SessionMark returns this server's mark at its current view.
func (s *Server) SessionMark() wire.SessionMark { return s.markAt(s.ChangeSeq()) }

// markAt returns the session mark of the view at change-log position seq:
// the envelope stamped onto a sessioned answer computed over that view. It
// claims exactly the writes the answer reflects — no more, so a reader
// never demands writes it did not see, and no less, so it never reads
// older state later. The generation follows from the constant Gen−Seq.
func (s *Server) markAt(seq uint64) wire.SessionMark {
	v := s.store.View()
	return wire.SessionMark{Origin: s.cfg.Name, Log: s.store.LogID(), Seq: seq, Gen: v.Gen - v.Seq + seq}
}

// vouch reports whether this server can stand behind one session mark: it
// is the mark's origin (same log incarnation) at or past the marked
// position, or it has pulled that origin's log incarnation through it.
// Because every application — local write or replicated — appends to a
// member's own log, "consumed the origin's log through Seq" is exactly
// "holds every write the reader could have observed there". A Log of 0
// (pre-incarnation mark or position) compares optimistically on Seq.
func (s *Server) vouch(m wire.SessionMark) bool {
	if m.Seq == 0 {
		return true // nothing observed yet: nothing to honor
	}
	if m.Origin == "" || m.Origin == s.cfg.Name {
		if m.Log != 0 && m.Log != s.store.LogID() {
			return false // minted by a previous incarnation of this server
		}
		return s.ChangeSeq() >= m.Seq
	}
	log, seq := s.SyncPosition(m.Origin)
	if m.Log != 0 && log != 0 && log != m.Log {
		return false // tracked a different incarnation of the origin
	}
	return seq >= m.Seq
}

// FreshAt reports whether this server may answer a read carrying the
// session envelope: every mark the reader's session holds must be
// vouched for.
func (s *Server) FreshAt(rc *wire.ReadConsistency) bool {
	if rc == nil {
		return true
	}
	for _, m := range rc.Marks {
		if !s.vouch(m) {
			return false
		}
	}
	return true
}

// consistencyPollInterval is how often WaitFresh re-checks while waiting
// for anti-entropy to catch this replica up to a requested mark.
const consistencyPollInterval = 2 * time.Millisecond

// WaitFresh is FreshAt with the configured grace: a read positioned behind
// the mark waits up to Config.ConsistencyWait (bounded by the request
// context) for the background syncer to close the gap before it is
// declared stale. Zero wait degrades to a plain FreshAt check.
func (s *Server) WaitFresh(ctx context.Context, rc *wire.ReadConsistency) bool {
	if s.FreshAt(rc) {
		return true
	}
	if s.cfg.ConsistencyWait <= 0 {
		return false
	}
	deadline := time.NewTimer(s.cfg.ConsistencyWait)
	defer deadline.Stop()
	tick := time.NewTicker(consistencyPollInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return false
		case <-deadline.C:
			return s.FreshAt(rc)
		case <-tick.C:
			if s.FreshAt(rc) {
				return true
			}
		}
	}
}

// changesAt answers a replication pull from view v: the logged changes
// after the caller's cursor, bounded at wire.MaxChangesPerPull.
func (s *Server) changesAt(v *store.View, since uint64) wire.ChangesResponse {
	resp := wire.ChangesResponse{
		Seq:      v.Seq,
		FirstSeq: v.FirstChangeSeq(),
		Name:     s.cfg.Name,
		LogID:    s.store.LogID(),
	}
	for _, ch := range v.ChangesSince(since, wire.MaxChangesPerPull) {
		resp.Changes = append(resp.Changes, wire.Change{
			Seq: ch.Seq, NodeID: int64(ch.NodeID), Tags: ch.Tags, Ver: ch.Ver,
		})
	}
	return resp
}

// ApplySyncChange applies one change pulled from a sibling replica,
// honoring the change's node version (store.Store.ApplyReplicatedTags):
// stale echoes (a sibling replaying an old value after a newer local
// write) and replays are no-ops — no generation bump, no re-log — which is
// what stops anti-entropy ping-pong AND protects newer writes from being
// rolled back by late-arriving history. Returns whether the map changed; a
// change that applies retires cached reads exactly like a local write.
func (s *Server) ApplySyncChange(ch wire.Change) bool {
	id := osm.NodeID(ch.NodeID)
	return s.write(func() bool {
		return s.store.ApplyReplicatedTags(id, osm.Tags(ch.Tags).Clone(), ch.Ver)
	})
}
