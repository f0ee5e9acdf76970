// Package search implements location-based search (§4): keyword retrieval
// over a map server's inverted index, ranked by a combination of text match
// quality and distance from the query location, plus the client-side merge
// that ranks results arriving from multiple federated map servers (§5.2).
package search

import (
	"fmt"
	"math"
	"sort"

	"openflame/internal/geo"
	"openflame/internal/osm"
	"openflame/internal/store"
)

// Result is a single search hit.
type Result struct {
	NodeID   osm.NodeID `json:"nodeId"`
	Name     string     `json:"name"`
	Position geo.LatLng `json:"position"`
	// TextScore is the fraction of query tokens matched (0, 1].
	TextScore float64 `json:"textScore"`
	// DistanceMeters from the query location (0 when no location given).
	DistanceMeters float64 `json:"distanceMeters"`
	// Score is the combined ranking score (higher is better).
	Score float64 `json:"score"`
	// Source identifies the map server that produced the hit (filled by
	// the client when merging).
	Source string `json:"source,omitempty"`
	// Tags carries the matched node's metadata for display.
	Tags osm.Tags `json:"tags,omitempty"`
}

// Options tune a search.
type Options struct {
	// Near biases ranking toward this location and fills DistanceMeters.
	Near *geo.LatLng
	// MaxDistanceMeters drops hits farther than this from Near (0 = no cap).
	MaxDistanceMeters float64
	// Limit caps the result count (0 = 10).
	Limit int
	// RequireAllTokens drops hits that do not match every query token.
	RequireAllTokens bool
}

// halfDistanceMeters is the distance at which the proximity factor halves.
const halfDistanceMeters = 500.0

// Searcher runs queries against one store.
type Searcher struct {
	r store.Reader
}

// New creates a searcher over r: a store (each query reads its current
// view) or one pinned view.
func New(r store.Reader) *Searcher { return &Searcher{r: r} }

// Search retrieves and ranks nodes matching the query, reading one view.
func (se *Searcher) Search(query string, opt Options) []Result {
	limit := opt.Limit
	if limit <= 0 {
		limit = 10
	}
	tokens := store.Tokenize(query)
	if len(tokens) == 0 {
		return nil
	}
	v := se.r.View()
	m := v.Map()
	var results []Result
	v.ForEachPostingMatch(tokens, func(id osm.NodeID, c int) {
		if opt.RequireAllTokens && c < len(tokens) {
			return
		}
		n := m.Node(id)
		if n == nil {
			return
		}
		r := Result{
			NodeID:    id,
			Name:      n.Tags.Get(osm.TagName),
			Position:  m.NodePosition(n),
			TextScore: float64(c) / float64(len(tokens)),
			Tags:      n.Tags,
		}
		if opt.Near != nil {
			r.DistanceMeters = geo.DistanceMeters(*opt.Near, r.Position)
			if opt.MaxDistanceMeters > 0 && r.DistanceMeters > opt.MaxDistanceMeters {
				return
			}
		}
		r.Score = CombinedScore(r.TextScore, r.DistanceMeters, opt.Near != nil)
		results = append(results, r)
	})
	SortResults(results)
	if len(results) > limit {
		results = results[:limit]
	}
	return results
}

// CombinedScore merges text relevance with proximity: text score scaled by
// a distance decay with half-life halfDistanceMeters.
func CombinedScore(textScore, distanceMeters float64, haveLocation bool) float64 {
	if !haveLocation {
		return textScore
	}
	decay := math.Exp2(-distanceMeters / halfDistanceMeters)
	return textScore * (0.2 + 0.8*decay)
}

// SortResults orders results by descending score with deterministic
// tie-breaks (distance, then name, then node ID).
func SortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		if rs[i].DistanceMeters != rs[j].DistanceMeters {
			return rs[i].DistanceMeters < rs[j].DistanceMeters
		}
		if rs[i].Name != rs[j].Name {
			return rs[i].Name < rs[j].Name
		}
		return rs[i].NodeID < rs[j].NodeID
	})
}

// Merge combines ranked result lists from multiple map servers into one
// ranked list (§5.2: "the client would then rank results from multiple map
// servers"), deduplicating hits that refer to the same physical entity
// (same name within dedupeMeters).
func Merge(lists [][]Result, limit int) []Result {
	if limit <= 0 {
		limit = 10
	}
	var all []Result
	for _, l := range lists {
		all = append(all, l...)
	}
	SortResults(all)
	var out []Result
	for _, r := range all {
		dup := false
		for _, kept := range out {
			if kept.Name == r.Name && kept.Name != "" &&
				geo.DistanceMeters(kept.Position, r.Position) < dedupeMeters {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, r)
			if len(out) == limit {
				break
			}
		}
	}
	return out
}

const dedupeMeters = 10.0

// Key returns a stable identity for a result, for tests and debugging.
func (r Result) Key() string {
	return fmt.Sprintf("%s@%.5f,%.5f", r.Name, r.Position.Lat, r.Position.Lng)
}
