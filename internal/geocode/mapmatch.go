package geocode

import (
	"math"

	"openflame/internal/geo"
	"openflame/internal/osm"
)

// Map matching: snapping a *sequence* of raw GPS readings to the road
// network, with continuity — the service behind "snapping raw GPS
// coordinates to roads on the map while navigating" (§4, cf. Mapbox Map
// Matching [19] and the Google Roads API [21]). A point-by-point snap
// flip-flops between parallel roads; the matcher scores candidate ways per
// point and adds a switching penalty, then picks the best assignment by
// Viterbi over the candidate lattice.

// TracePoint is one matched trace point.
type TracePoint struct {
	Raw      geo.LatLng `json:"raw"`
	Matched  geo.LatLng `json:"matched"`
	WayID    osm.WayID  `json:"wayId"`
	RoadName string     `json:"roadName,omitempty"`
}

// matchCandidate is one way hypothesis for one point.
type matchCandidate struct {
	snap RoadSnap
	cost float64 // cumulative Viterbi cost
	prev int     // index into previous layer
}

// MatchTrace snaps a GPS trace to the road network. maxMeters bounds the
// per-point snap radius; switchPenaltyMeters is the extra cost charged for
// changing ways between consecutive points (typical: 20–50). Points with
// no candidate within maxMeters are dropped from the output.
func (g *Geocoder) MatchTrace(trace []geo.LatLng, maxMeters, switchPenaltyMeters float64) []TracePoint {
	if maxMeters <= 0 {
		maxMeters = 50
	}
	if switchPenaltyMeters <= 0 {
		switchPenaltyMeters = 30
	}
	// Build the candidate lattice: up to K way hypotheses per point.
	const K = 4
	layers := make([][]matchCandidate, 0, len(trace))
	kept := make([]int, 0, len(trace)) // original indexes of non-empty layers
	for i, p := range trace {
		cands := g.candidateSnaps(p, maxMeters, K)
		if len(cands) == 0 {
			continue
		}
		layer := make([]matchCandidate, len(cands))
		for j, s := range cands {
			layer[j] = matchCandidate{snap: s, cost: math.Inf(1), prev: -1}
		}
		layers = append(layers, layer)
		kept = append(kept, i)
	}
	if len(layers) == 0 {
		return nil
	}
	// Viterbi: emission cost = snap distance; transition cost = switch
	// penalty when the way changes.
	for j := range layers[0] {
		layers[0][j].cost = layers[0][j].snap.DistanceMeters
	}
	for l := 1; l < len(layers); l++ {
		for j := range layers[l] {
			emit := layers[l][j].snap.DistanceMeters
			for pj := range layers[l-1] {
				c := layers[l-1][pj].cost + emit
				if layers[l-1][pj].snap.WayID != layers[l][j].snap.WayID {
					c += switchPenaltyMeters
				}
				if c < layers[l][j].cost {
					layers[l][j].cost = c
					layers[l][j].prev = pj
				}
			}
		}
	}
	// Backtrack from the cheapest final candidate.
	last := len(layers) - 1
	best := 0
	for j := range layers[last] {
		if layers[last][j].cost < layers[last][best].cost {
			best = j
		}
	}
	idxs := make([]int, len(layers))
	for l, j := last, best; l >= 0; l-- {
		idxs[l] = j
		j = layers[l][j].prev
	}
	out := make([]TracePoint, len(layers))
	for l, j := range idxs {
		s := layers[l][j].snap
		out[l] = TracePoint{
			Raw:      trace[kept[l]],
			Matched:  s.Position,
			WayID:    s.WayID,
			RoadName: s.RoadName,
		}
	}
	return out
}

// candidateSnaps returns up to k distinct-way snaps for a point, closest
// first.
func (g *Geocoder) candidateSnaps(p geo.LatLng, maxMeters float64, k int) []RoadSnap {
	// The store's SnapToWay returns only the best; enumerate ways by
	// searching nearby segments through progressively larger exclusion.
	// Simpler: collect every way within range via the segment search and
	// keep the best snap per way.
	best := map[osm.WayID]RoadSnap{}
	v := g.r.View()
	v.ForEachSegmentNear(p, maxMeters, func(wayID osm.WayID, a, b geo.LatLng) {
		cp, _ := geo.ClosestPointOnSegment(p, a, b)
		d := geo.DistanceMeters(p, cp)
		if d > maxMeters {
			return
		}
		cur, ok := best[wayID]
		if !ok || d < cur.DistanceMeters {
			w := v.Map().Way(wayID)
			name := ""
			if w != nil {
				name = w.Tags.Get(osm.TagName)
			}
			best[wayID] = RoadSnap{
				WayID: wayID, RoadName: name, Position: cp, DistanceMeters: d,
			}
		}
	})
	out := make([]RoadSnap, 0, len(best))
	for _, s := range best {
		out = append(out, s)
	}
	// Selection sort is fine for tiny k over tiny sets.
	for i := 0; i < len(out); i++ {
		m := i
		for j := i + 1; j < len(out); j++ {
			if out[j].DistanceMeters < out[m].DistanceMeters {
				m = j
			}
		}
		out[i], out[m] = out[m], out[i]
	}
	if len(out) > k {
		out = out[:k]
	}
	return out
}
