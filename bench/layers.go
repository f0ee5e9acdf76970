package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"openflame/internal/geo"
	"openflame/internal/geocode"
	"openflame/internal/graph"
	"openflame/internal/mapserver"
	"openflame/internal/s2cell"
	"openflame/internal/search"
	"openflame/internal/store"
	"openflame/internal/tiles"
	"openflame/internal/wire"
)

// services are the per-service segments of the mapserver.* metrics, in the
// order BENCHMARK.json lists them.
var services = []string{"search", "geocode", "rgeocode", "route", "routematrix", "localize", "tiles"}

// timeEach runs fn over n items single-threaded and returns each call's
// duration in microseconds, sorted.
func timeEach(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn(i)
		out[i] = float64(time.Since(t0)) / 1e3
	}
	sort.Float64s(out)
	return out
}

func p50(xs []float64) float64 { v, _ := percentile(xs, 50); return v }

// decoded is a recorded request parsed back into its wire type.
type decoded struct {
	srv *mapserver.Server
	req interface{} // a wire.*Request, or tiles.Coord
}

// parse decodes a recorded JSON body into request type T and strips its
// consistency mark: the direct call has no session to honour.
func parse[T any, PT interface {
	*T
	wire.ConsistencyCarrier
}](body []byte) (interface{}, error) {
	var q T
	err := json.Unmarshal(body, &q)
	PT(&q).TakeConsistency()
	return q, err
}

func decode(svc string, recs []recordedReq) ([]decoded, error) {
	out := make([]decoded, 0, len(recs))
	for _, r := range recs {
		d := decoded{srv: r.srv}
		var err error
		switch svc {
		case "search":
			d.req, err = parse[wire.SearchRequest](r.body)
		case "geocode":
			d.req, err = parse[wire.GeocodeRequest](r.body)
		case "rgeocode":
			d.req, err = parse[wire.RGeocodeRequest](r.body)
		case "route":
			d.req, err = parse[wire.RouteRequest](r.body)
		case "routematrix":
			d.req, err = parse[wire.RouteMatrixRequest](r.body)
		case "localize":
			d.req, err = parse[wire.LocalizeRequest](r.body)
		case "tiles":
			var c tiles.Coord
			_, err = fmt.Sscanf(strings.TrimPrefix(r.path, "/tiles/"), "%d/%d/%d.png", &c.Z, &c.X, &c.Y)
			d.req = c
		}
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", svc, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// direct replays recorded requests, in the order the servers received
// them, through each server's public method: the query cache and the
// compute under it, without HTTP, admission, decode, ETag or encode. The
// recorded requests are the very first of the traced window. By its end a
// workload that overflows the cache has evicted them and one that fits it
// still holds them, so the replay meets roughly the workload's own hit
// ratio — provided the window outlasts the cache's turnover, about 5 s on
// city_cold.
func direct(reqs []decoded) []float64 {
	return timeEach(len(reqs), func(i int) {
		s := reqs[i].srv
		switch q := reqs[i].req.(type) {
		case wire.SearchRequest:
			s.Search(q)
		case wire.GeocodeRequest:
			s.Geocode(q)
		case wire.RGeocodeRequest:
			s.RGeocode(q)
		case wire.RouteRequest:
			s.Route(q)
		case wire.RouteMatrixRequest:
			s.RouteMatrix(q)
		case wire.LocalizeRequest:
			s.Localize(q)
		case tiles.Coord:
			_, _ = s.Tile(q) // a tile outside the map is an answer too
		}
	})
}

// snap mirrors mapserver's position-to-graph-node rule with the store's
// public calls, for probes that need node ids.
func snap(st *store.Store, g *graph.Graph, ll geo.LatLng) int64 {
	if s, ok := st.SnapToWay(ll, 250); ok && g.HasNode(int64(s.NodeID)) {
		return int64(s.NodeID)
	}
	for _, hit := range st.NearestNodes(ll, 16, 500) {
		if g.HasNode(int64(hit.Node.ID)) {
			return int64(hit.Node.ID)
		}
	}
	return -1
}

// probes times the compute layers under the servers one call at a time,
// single-threaded, on the requests the traced window recorded. Nothing here
// goes through a cache: it is what a miss costs in each layer.
func probes(dec map[string][]decoded, out map[string]float64) {
	out["search.query_us_p50"] = p50(timeEach(len(dec["search"]), func(i int) {
		d := dec["search"][i]
		q := d.req.(wire.SearchRequest)
		search.New(d.srv.Store()).Search(q.Query, search.Options{Near: q.Near, MaxDistanceMeters: q.MaxDistanceMeters, Limit: q.Limit})
	}))
	out["geocode.forward_us_p50"] = p50(timeEach(len(dec["geocode"]), func(i int) {
		d := dec["geocode"][i]
		q := d.req.(wire.GeocodeRequest)
		geocode.New(d.srv.Store()).Forward(q.Query, q.Limit)
	}))
	out["geocode.reverse_us_p50"] = p50(timeEach(len(dec["rgeocode"]), func(i int) {
		d := dec["rgeocode"][i]
		q := d.req.(wire.RGeocodeRequest)
		geocode.New(d.srv.Store()).Reverse(q.Position, q.MaxMeters)
	}))

	// Positions the servers snapped: both ends of every routed request.
	type at struct {
		st *store.Store
		ll geo.LatLng
	}
	var points []at
	for _, d := range dec["route"] {
		q := d.req.(wire.RouteRequest)
		points = append(points, at{d.srv.Store(), q.From}, at{d.srv.Store(), q.To})
	}
	for _, d := range dec["rgeocode"] {
		points = append(points, at{d.srv.Store(), d.req.(wire.RGeocodeRequest).Position})
	}
	out["store.snap_us_p50"] = p50(timeEach(len(points), func(i int) { points[i].st.SnapToWay(points[i].ll, 250) }))
	out["store.nearest_us_p50"] = p50(timeEach(len(points), func(i int) { points[i].st.NearestNodes(points[i].ll, 16, 500) }))

	// A hierarchy per server that routed, built here from the server's
	// public graph: the server's own is not reachable from outside.
	chs := make(map[*mapserver.Server]*graph.CH)
	chOf := func(s *mapserver.Server) *graph.CH {
		if chs[s] == nil {
			chs[s] = graph.BuildCH(s.Graph())
		}
		return chs[s]
	}
	type pair struct {
		ch       *graph.CH
		src, dst int64
	}
	var pairs []pair
	for _, d := range dec["route"] {
		q := d.req.(wire.RouteRequest)
		src, dst := q.FromNode, q.ToNode
		if src == 0 {
			src = snap(d.srv.Store(), d.srv.Graph(), q.From)
		}
		if dst == 0 {
			dst = snap(d.srv.Store(), d.srv.Graph(), q.To)
		}
		if src > 0 && dst > 0 {
			pairs = append(pairs, pair{chOf(d.srv), src, dst})
		}
	}
	out["graph.ch_query_us_p50"] = p50(timeEach(len(pairs), func(i int) {
		_, _ = pairs[i].ch.Query(pairs[i].src, pairs[i].dst) // unreachable is a result
	}))
	type matrix struct {
		ch       *graph.CH
		src, dst []int64
	}
	var matrices []matrix
	for _, d := range dec["routematrix"] {
		q := d.req.(wire.RouteMatrixRequest)
		resolve := func(ids []int64, pos []geo.LatLng) []int64 {
			if len(ids) == 0 {
				ids = make([]int64, len(pos))
			}
			res := make([]int64, len(ids))
			for i, id := range ids {
				if res[i] = id; id == 0 && i < len(pos) {
					res[i] = snap(d.srv.Store(), d.srv.Graph(), pos[i])
				}
			}
			return res
		}
		matrices = append(matrices, matrix{chOf(d.srv), resolve(q.FromNodes, q.FromPositions), resolve(q.ToNodes, q.ToPositions)})
	}
	out["graph.ch_matrix_us_p50"] = p50(timeEach(len(matrices), func(i int) {
		matrices[i].ch.Matrix(matrices[i].src, matrices[i].dst)
	}))
	out["tiles.get_us_p50"] = p50(timeEach(len(dec["tiles"]), func(i int) {
		_, _ = dec["tiles"][i].srv.Tile(dec["tiles"][i].req.(tiles.Coord))
	}))
}

// discoveryProbe times warm discovery over the regions the workload's own
// ops ask about: a search cap around each op's position and the point
// lookup geocode and rgeocode do.
func discoveryProbe(cl *caller, out map[string]float64) {
	// A warm region sweep is over a millisecond; 100 of them, twice, is
	// what a run's deadline and a five-second test leave room for.
	const n = 100
	var centres []geo.LatLng
	for len(centres) < n {
		if o := cl.gen(cl.rng); o.kind != opGeocode && o.kind != opTile {
			centres = append(centres, o.pos)
		}
	}
	disc := cl.disc
	anns := make([]float64, n)
	region := func(i int) {
		a := disc.DiscoverRegion(s2cell.CapRegion{Cap: geo.Cap{Center: centres[i], RadiusMeters: cl.c.SearchRadiusMeters}})
		anns[i] = float64(len(a))
	}
	point := func(i int) { disc.Discover(centres[i]) }
	// Once untimed, so the timed pass is warm like the window's calls.
	for i := 0; i < n; i++ {
		region(i)
		point(i)
	}
	out["discovery.region_us_p50"] = p50(timeEach(n, region))
	out["discovery.point_us_p50"] = p50(timeEach(n, point))
	out["discovery.anns_per_region_p50"] = median(anns)
}

// kindBudget says where one op kind's median call went, from its spans.
type kindBudget struct {
	Ops          int     `json:"ops"`
	OpUSP50      float64 `json:"op_us_p50"`
	SelfUSP50    float64 `json:"client_self_us_p50"`
	WireUSP50    float64 `json:"http_overhead_us_p50"` // blocking round-trip time not inside a handler
	HandlerUSP50 float64 `json:"handler_us_p50"`       // blocking time inside handlers
	DNSUSP50     float64 `json:"dns_us_p50"`
	ReqsPerOp    float64 `json:"http_reqs_per_op"`
}

// spanMetrics turns a traced window's spans into the span-derived layer
// metrics and a per-kind budget. Every number is about ops that succeeded
// or failed alike; failures are counted elsewhere.
func spanMetrics(spans []span, out map[string]float64) map[string]kindBudget {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := selfTimes(spans)

	var opSelf, rt, overhead, exch []float64
	handler := make(map[string][]float64)
	type acc struct{ op, self, wire, handler, dns, reqs []float64 }
	kinds := make(map[string]*acc)
	for _, s := range spans {
		us := float64(s.dur()) / 1e3
		switch s.Name {
		case spanOp:
			opSelf = append(opSelf, float64(self[s.ID])/1e3)
			a := kinds[s.Detail]
			if a == nil {
				a = &acc{}
				kinds[s.Detail] = a
			}
			// Blocking time by layer: the op's interval is split among
			// client code (self), DNS, and round trips; each round trip's
			// share of the covered time splits again into handler and
			// everything around it. Parallel round trips share the time
			// they overlap in proportion to their length.
			var rtIvs, dnsIvs [][2]int64
			var rtTotal, hTotal int64
			reqs := 0
			for _, c := range children[s.ID] {
				if c.Name == spanExchange {
					dnsIvs = append(dnsIvs, [2]int64{c.Start, c.End})
					continue
				}
				reqs++
				rtIvs = append(rtIvs, [2]int64{c.Start, c.End})
				rtTotal += c.dur()
				for _, h := range children[c.ID] {
					hTotal += h.dur()
				}
			}
			rtCovered := float64(covered(s.Start, s.End, rtIvs)) / 1e3
			hShare := 0.0
			if rtTotal > 0 {
				hShare = float64(hTotal) / float64(rtTotal)
			}
			a.op = append(a.op, us)
			a.self = append(a.self, float64(self[s.ID])/1e3)
			a.handler = append(a.handler, rtCovered*hShare)
			a.wire = append(a.wire, rtCovered*(1-hShare))
			a.dns = append(a.dns, float64(covered(s.Start, s.End, dnsIvs))/1e3)
			a.reqs = append(a.reqs, float64(reqs))
		case spanRoundTrip:
			rt = append(rt, us)
			var h int64
			for _, c := range children[s.ID] {
				h += c.dur()
			}
			overhead = append(overhead, float64(s.dur()-h)/1e3)
		case spanHandler:
			if svc := serviceOf(s.Detail); svc != "" {
				handler[svc] = append(handler[svc], us)
			}
		case spanExchange:
			exch = append(exch, us)
		}
	}
	sort.Float64s(rt)
	out["client.self_us_p50"] = median(opSelf)
	out["http.roundtrip_us_p50"] = p50(rt)
	out["http.roundtrip_us_p99"], _ = percentile(rt, 99)
	out["http.overhead_us_p50"] = median(overhead)
	out["dns.exchange_us_p50"] = median(exch)
	for _, svc := range services {
		out["mapserver."+svc+".handler_us_p50"] = median(handler[svc])
	}

	budget := make(map[string]kindBudget, len(kinds))
	for k, a := range kinds {
		mean := 0.0
		for _, r := range a.reqs {
			mean += r
		}
		budget[k] = kindBudget{
			Ops: len(a.op), OpUSP50: median(a.op), SelfUSP50: median(a.self),
			WireUSP50: median(a.wire), HandlerUSP50: median(a.handler), DNSUSP50: median(a.dns),
			ReqsPerOp: mean / float64(len(a.reqs)),
		}
	}
	return budget
}
