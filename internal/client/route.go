package client

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"

	"openflame/internal/discovery"
	"openflame/internal/fanout"
	"openflame/internal/geo"
	"openflame/internal/s2cell"
	"openflame/internal/wire"
)

// Leg is one server's contribution to a stitched route.
type Leg struct {
	Server      string
	URL         string
	Points      []wire.RoutePoint
	CostSeconds float64
}

// StitchedRoute is a cross-server route assembled by the client (§5.2:
// "the client would collect paths from all relevant map servers, and stitch
// them together such that the final path optimizes a metric of interest").
type StitchedRoute struct {
	Legs         []Leg
	CostSeconds  float64
	LengthMeters float64
	// ServersUsed counts distinct servers contributing legs.
	ServersUsed int
}

// Points flattens the legs into one polyline.
func (r StitchedRoute) Points() []wire.RoutePoint {
	var out []wire.RoutePoint
	for _, leg := range r.Legs {
		for _, p := range leg.Points {
			if len(out) > 0 && out[len(out)-1].Position == p.Position {
				continue
			}
			out = append(out, p)
		}
	}
	return out
}

// metaNode identifies a vertex of the portal meta-graph.
type metaNode string

const (
	metaSrc metaNode = "\x00src"
	metaDst metaNode = "\x00dst"
)

// metaEdge is a priced leg candidate.
type metaEdge struct {
	to     metaNode
	cost   float64
	server string // URL of the replica that priced this leg
	// group indexes the replica group the pricing server belongs to; leg
	// expansion fails over to the group's siblings if the pricer has gone
	// away between pricing and expansion.
	group int
	// endpoint descriptors for expanding the leg later
	fromNode int64 // 0 = use fromPos
	toNode   int64 // 0 = use toPos
	fromPos  geo.LatLng
	toPos    geo.LatLng
}

// RouteV2 plans a route from one position to another across the
// federation: it discovers servers at the endpoints and along the way,
// prices legs between portals with route-matrix calls, finds the optimal
// composition on the portal meta-graph, and expands each chosen leg into
// its full path. The three discovery sweeps (source, destination, along
// the way), the per-server meta-graph pricing, and the final leg
// expansions each fan out concurrently on the client's bounded pool;
// pricing failures skip the server, leg-expansion failures fail the route
// (a chosen leg is not optional).
func (c *Client) RouteV2(ctx context.Context, from, to geo.LatLng, opts ...CallOption) (StitchedRoute, error) {
	ctx = c.withCallOpts(ctx, opts)
	// One retry budget for the whole route: pricing, leg expansion, and
	// anchor lookups share it rather than each getting a fresh one.
	ctx = c.withRetryBudget(ctx)
	// 1. Discover the servers involved (§5.2: endpoints plus the way).
	// Endpoints anchor to the MOST SPECIFIC (finest-level) servers
	// covering them: a shelf inside a store belongs to the store's map,
	// not to the world map that merely snaps it to the nearest street.
	// These are whole discovery sweeps, not single server calls, so they
	// run on the plain pool — PerServerTimeout must not truncate them.
	var srcAnns, dstAnns, wayAnns []discovery.Announcement
	discoveries := []func(ctx context.Context){
		func(ctx context.Context) { srcAnns = c.disc.DiscoverCtx(ctx, from) },
		func(ctx context.Context) { dstAnns = c.disc.DiscoverCtx(ctx, to) },
		func(ctx context.Context) {
			wayAnns = c.disc.DiscoverAlongPathCtx(ctx, []geo.LatLng{from, to}, 200)
		},
	}
	fanout.ForEach(ctx, len(discoveries), c.MaxConcurrency, func(ctx context.Context, i int) { discoveries[i](ctx) })

	// Plan the discovered servers into replica groups (anchors first, then
	// the remaining endpoint and on-the-way discoveries, deduplicated) and
	// attach the endpoint roles: a group anchors SRC/DST when any of its
	// members was selected as an anchor for that endpoint.
	anchorSrc := urlSet(c.anchorServers(ctx, srcAnns))
	anchorDst := urlSet(c.anchorServers(ctx, dstAnns))
	var all []discovery.Announcement
	all = append(all, srcAnns...)
	all = append(all, dstAnns...)
	all = append(all, wayAnns...)
	groups := planAnnouncements(all)
	// Deterministic pricing order regardless of which discovery sweep
	// surfaced a group first: sort by the group's first member URL (the
	// pre-plan code sorted the URL list the same way), breaking URL ties
	// (one URL transiently announced under two names) on the group key —
	// sort.Slice is unstable, so the tie-break must be total.
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].Replicas[0].URL != groups[j].Replicas[0].URL {
			return groups[i].Replicas[0].URL < groups[j].Replicas[0].URL
		}
		return groups[i].Key < groups[j].Key
	})
	// Dedup by URL across groups, restoring the pre-plan invariant of one
	// pricing call per URL: during a live re-registration under a new
	// name, the old and new records coexist for up to one TTL and would
	// otherwise form two groups around the same server.
	seenURL := map[string]bool{}
	kept := groups[:0]
	for _, g := range groups {
		fresh := false
		for _, a := range g.Replicas {
			if !seenURL[a.URL] {
				fresh = true
			}
		}
		for _, a := range g.Replicas {
			seenURL[a.URL] = true
		}
		if fresh {
			kept = append(kept, g)
		}
	}
	groups = kept
	if len(groups) == 0 {
		return StitchedRoute{}, fmt.Errorf("client: no map servers discovered for route")
	}
	roleOf := func(g planGroup, anchors map[string]bool) bool {
		for _, a := range g.Replicas {
			if anchors[a.URL] {
				return true
			}
		}
		return false
	}

	// 2. Build the meta-graph: price legs via one route-matrix call per
	// replica GROUP — replicas advertise identical portals, so pricing one
	// member covers the region, and a failed member's sibling answers
	// instead. All groups price in parallel; the per-group edge lists land
	// in indexed slots and merge in sorted order so the adjacency (and
	// therefore tie-breaks in the meta-graph search) is deterministic
	// regardless of completion order. Members whose circuit breaker is open
	// are excluded inside the group ordering — legs are never priced on
	// (and so never chosen from) a known-down server.
	type pricedGroup struct {
		edges map[metaNode][]metaEdge
	}
	priced := make([]pricedGroup, len(groups))
	c.forEachGroup(ctx, len(groups), func(ctx context.Context, idx int) {
		g := groups[idx]
		isSrc := roleOf(g, anchorSrc)
		isDst := roleOf(g, anchorDst)
		type endpoint struct {
			node metaNode
			id   int64
			pos  geo.LatLng
		}
		for _, a := range c.orderedReplicas(g) {
			actx, cancel := c.perServerCtx(ctx)
			info, err := c.infoCtx(actx, a.URL)
			if err != nil {
				cancel()
				continue
			}
			var eps []endpoint
			if isSrc {
				eps = append(eps, endpoint{node: metaSrc, pos: from})
			}
			if isDst {
				eps = append(eps, endpoint{node: metaDst, pos: to})
			}
			for _, p := range info.Portals {
				eps = append(eps, endpoint{node: metaNode(p.ID), id: p.NodeID, pos: p.World})
			}
			if len(eps) < 2 {
				cancel()
				return // same for every replica: nothing to price here
			}
			req := wire.RouteMatrixRequest{
				FromNodes:     make([]int64, len(eps)),
				ToNodes:       make([]int64, len(eps)),
				FromPositions: make([]geo.LatLng, len(eps)),
				ToPositions:   make([]geo.LatLng, len(eps)),
			}
			for i, ep := range eps {
				req.FromNodes[i] = ep.id
				req.ToNodes[i] = ep.id
				req.FromPositions[i] = ep.pos
				req.ToPositions[i] = ep.pos
			}
			var resp wire.RouteMatrixResponse
			err = c.callKeyed(actx, g.Key, a.URL, "/routematrix", &req, &resp)
			cancel()
			if err != nil {
				continue // fail over to the next sibling
			}
			edges := map[metaNode][]metaEdge{}
			for i := range eps {
				for j := range eps {
					if i == j || eps[i].node == eps[j].node {
						continue
					}
					// Never route *into* SRC or *out of* DST.
					if eps[j].node == metaSrc || eps[i].node == metaDst {
						continue
					}
					cost := matrixAt(resp, i, j)
					if cost < 0 {
						continue
					}
					edges[eps[i].node] = append(edges[eps[i].node], metaEdge{
						to: eps[j].node, cost: cost, server: a.URL, group: idx,
						fromNode: eps[i].id, toNode: eps[j].id,
						fromPos: eps[i].pos, toPos: eps[j].pos,
					})
				}
			}
			priced[idx] = pricedGroup{edges: edges}
			return
		}
	})
	adj := map[metaNode][]metaEdge{}
	for _, p := range priced {
		for from, edges := range p.edges {
			adj[from] = append(adj[from], edges...)
		}
	}

	// 3. Shortest path SRC→DST on the meta-graph.
	chain, total, err := metaDijkstra(adj, metaSrc, metaDst)
	if err != nil {
		return StitchedRoute{}, err
	}

	// 4. Expand every chosen leg with a full /route call on its server, all
	// in parallel, reassembled in chain order.
	legs := make([]Leg, len(chain))
	lengths := make([]float64, len(chain))
	legErrs := make([]error, len(chain))
	expanded := make([]bool, len(chain))
	// expandOne expands leg i, trying the replica that priced it first and
	// failing over to its group siblings — a replica lost between pricing
	// and expansion must not fail the whole route while an identical
	// sibling is healthy. Each attempt gets its own per-server timeout.
	expandOne := func(ctx context.Context, i int) {
		e := chain[i]
		req := wire.RouteRequest{
			FromNode: e.fromNode, ToNode: e.toNode,
			From: e.fromPos, To: e.toPos,
		}
		groupKey := ""
		candidates := []string{e.server}
		if e.group >= 0 && e.group < len(groups) {
			groupKey = groups[e.group].Key
			for _, a := range c.orderedReplicas(groups[e.group]) {
				if a.URL != e.server {
					candidates = append(candidates, a.URL)
				}
			}
		}
		for _, url := range candidates {
			actx, cancel := c.perServerCtx(ctx)
			var resp wire.RouteResponse
			err := c.callKeyed(actx, groupKey, url, "/route", &req, &resp)
			if err != nil {
				cancel()
				legErrs[i] = fmt.Errorf("client: leg expansion on %s failed: %v", url, err)
				continue
			}
			if !resp.Found {
				cancel()
				legErrs[i] = fmt.Errorf("client: leg expansion on %s failed: no route found", url)
				continue
			}
			name := url
			if info, err := c.infoCtx(actx, url); err == nil {
				name = info.Name
			}
			cancel()
			legs[i] = Leg{
				Server: name, URL: url, Points: resp.Points, CostSeconds: resp.CostSeconds,
			}
			lengths[i] = resp.LengthMeters
			legErrs[i] = nil
			expanded[i] = true
			return
		}
	}
	c.forEachGroup(ctx, len(chain), expandOne)
	route := StitchedRoute{CostSeconds: total}
	used := map[string]bool{}
	for i, e := range chain {
		if legErrs[i] != nil {
			return StitchedRoute{}, legErrs[i]
		}
		if !expanded[i] {
			// Cancelled before the leg ran.
			return StitchedRoute{}, fmt.Errorf("client: leg expansion on %s aborted: %v", e.server, ctx.Err())
		}
		route.Legs = append(route.Legs, legs[i])
		route.LengthMeters += lengths[i]
		// Count the replica that actually served the leg (failover may
		// have moved it off the replica that priced it).
		used[legs[i].URL] = true
	}
	route.ServersUsed = len(used)
	return route, nil
}

// urlSet collects the announcements' URLs into a set (anchor membership
// lookups for replica groups).
func urlSet(anns []discovery.Announcement) map[string]bool {
	out := make(map[string]bool, len(anns))
	for _, a := range anns {
		out[a.URL] = true
	}
	return out
}

// anchorServers picks the most specific maps covering a point to anchor a
// route endpoint: first the announcements at the finest discovery level,
// then — among ties — the servers whose total coverage area is within 4× of
// the smallest (a store's map beats a city map whose covering happens to
// include a same-level boundary cell). Coverage infos for tied servers are
// fetched concurrently (and cached, so only the first route pays).
func (c *Client) anchorServers(ctx context.Context, anns []discovery.Announcement) []discovery.Announcement {
	max := -1
	for _, a := range anns {
		if a.Level > max {
			max = a.Level
		}
	}
	var finest []discovery.Announcement
	for _, a := range anns {
		if a.Level == max {
			finest = append(finest, a)
		}
	}
	if len(finest) <= 1 {
		return finest
	}
	areas := make([]float64, len(finest))
	c.forEachServer(ctx, len(finest), func(ctx context.Context, i int) {
		areas[i] = math.Inf(1)
		if info, err := c.infoCtx(ctx, finest[i].URL); err == nil {
			areas[i] = coverageArea(info.Coverage)
		}
	})
	minArea := math.Inf(1)
	for _, a := range areas {
		if a < minArea {
			minArea = a
		}
	}
	if math.IsInf(minArea, 1) {
		return finest
	}
	var out []discovery.Announcement
	for i, a := range finest {
		if areas[i] <= 4*minArea {
			out = append(out, a)
		}
	}
	return out
}

// coverageArea sums relative cell areas (4^-level) over coverage tokens.
func coverageArea(tokens []string) float64 {
	var area float64
	for _, tok := range tokens {
		cell := s2cell.FromToken(tok)
		if !cell.IsValid() {
			continue
		}
		area += math.Pow(4, -float64(cell.Level()))
	}
	return area
}

func matrixAt(resp wire.RouteMatrixResponse, i, j int) float64 {
	if i >= len(resp.CostSeconds) || j >= len(resp.CostSeconds[i]) {
		return -1
	}
	return resp.CostSeconds[i][j]
}

// metaDijkstra finds the cheapest edge chain from src to dst.
func metaDijkstra(adj map[metaNode][]metaEdge, src, dst metaNode) ([]metaEdge, float64, error) {
	type hop struct {
		edge metaEdge
		from metaNode
	}
	dist := map[metaNode]float64{src: 0}
	prev := map[metaNode]hop{}
	done := map[metaNode]bool{}
	pq := &metaPQ{{node: src, dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(metaPQItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		if it.node == dst {
			break
		}
		for _, e := range adj[it.node] {
			nd := it.dist + e.cost
			if old, ok := dist[e.to]; !ok || nd < old {
				dist[e.to] = nd
				prev[e.to] = hop{edge: e, from: it.node}
				heap.Push(pq, metaPQItem{node: e.to, dist: nd})
			}
		}
	}
	total, ok := dist[dst]
	if !ok || math.IsInf(total, 1) || !done[dst] {
		return nil, 0, fmt.Errorf("client: no stitched route exists")
	}
	var chain []metaEdge
	for n := dst; n != src; {
		h, ok := prev[n]
		if !ok {
			return nil, 0, fmt.Errorf("client: meta-path reconstruction failed")
		}
		chain = append(chain, h.edge)
		n = h.from
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain, total, nil
}

type metaPQItem struct {
	node metaNode
	dist float64
}

type metaPQ []metaPQItem

func (q metaPQ) Len() int            { return len(q) }
func (q metaPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q metaPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *metaPQ) Push(x interface{}) { *q = append(*q, x.(metaPQItem)) }
func (q *metaPQ) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}
