// Package geocode implements forward and reverse geocoding over a map
// server's store (§4): text address → map node, and geographic location →
// nearest addressable node (the service behind marker placement and click
// interaction).
package geocode

import (
	"sort"
	"strings"

	"openflame/internal/geo"
	"openflame/internal/osm"
	"openflame/internal/store"
)

// Result is a geocoding match.
type Result struct {
	NodeID   osm.NodeID `json:"nodeId"`
	Name     string     `json:"name"`
	Position geo.LatLng `json:"position"`
	// Score is the fraction of query tokens matched, in (0, 1].
	Score float64 `json:"score"`
	// Address is the node's full address tag if present.
	Address string `json:"address,omitempty"`
}

// Geocoder answers forward/reverse geocode queries against one store. Each
// query reads one view.
type Geocoder struct {
	r store.Reader
}

// New creates a geocoder over r: a store (each query reads its current
// view) or one pinned view.
func New(r store.Reader) *Geocoder { return &Geocoder{r: r} }

// Forward resolves a free-text address to candidate nodes, best first.
// Matching is token-based: every query token must appear in the node's
// indexed text for a perfect score; partial matches rank lower. At most
// limit results are returned (limit <= 0 means 10).
func (g *Geocoder) Forward(query string, limit int) []Result {
	if limit <= 0 {
		limit = 10
	}
	tokens := store.Tokenize(query)
	if len(tokens) == 0 {
		return nil
	}
	var results []Result
	v := g.r.View()
	m := v.Map()
	v.ForEachPostingMatch(tokens, func(id osm.NodeID, c int) {
		n := m.Node(id)
		if n == nil {
			return
		}
		results = append(results, Result{
			NodeID:   id,
			Name:     n.Tags.Get(osm.TagName),
			Position: m.NodePosition(n),
			Score:    float64(c) / float64(len(tokens)),
			Address:  n.Tags.Get(osm.TagAddr),
		})
	})
	sort.Slice(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		// Prefer named nodes, then stable order by ID.
		ni := results[i].Name != ""
		nj := results[j].Name != ""
		if ni != nj {
			return ni
		}
		return results[i].NodeID < results[j].NodeID
	})
	if len(results) > limit {
		results = results[:limit]
	}
	return results
}

// Reverse finds the nearest addressable node (one with a name or address
// tag) within maxMeters of ll.
func (g *Geocoder) Reverse(ll geo.LatLng, maxMeters float64) (Result, bool) {
	v := g.r.View()
	hits := v.NearestNodesWhere(ll, 1, maxMeters, func(n *osm.Node) bool {
		return n.Tags.Get(osm.TagName) != "" || n.Tags.Get(osm.TagAddr) != "" ||
			n.Tags.Get(osm.TagNumber) != ""
	})
	if len(hits) == 0 {
		return Result{}, false
	}
	n := hits[0].Node
	return Result{
		NodeID:   n.ID,
		Name:     n.Tags.Get(osm.TagName),
		Position: v.Map().NodePosition(n),
		Score:    1,
		Address:  n.Tags.Get(osm.TagAddr),
	}, true
}

// ParseAddress splits a comma-separated hierarchical address into
// components, most specific first: "Seaweed Shelf, Corner Grocery,
// Pittsburgh" → ["Seaweed Shelf", "Corner Grocery", "Pittsburgh"]. The
// client uses the coarse tail with a world geocoder and the specific head
// with the discovered fine map servers (§5.2).
func ParseAddress(addr string) []string {
	parts := strings.Split(addr, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
