// Package centralized implements the baseline architecture of Figure 1: a
// single mapping system that ingests every map — outdoor and indoor — into
// one global database, preprocesses it offline (contraction hierarchies for
// routing, pre-rendered tiles, global geocode/search indexes), and serves
// all location-based services from the preprocessed artifacts.
//
// It is the comparator for the federated experiments: route quality is
// globally optimal (E5 measures federated stretch against it), but adding
// or changing any constituent map requires re-ingesting and re-preprocessing
// the world (E11), and every indoor map must be surrendered to the central
// operator — the paper's core critique (§1).
package centralized

import (
	"fmt"
	"time"

	"openflame/internal/align"
	"openflame/internal/geo"
	"openflame/internal/geocode"
	"openflame/internal/graph"
	"openflame/internal/osm"
	"openflame/internal/search"
	"openflame/internal/store"
	"openflame/internal/tiles"
	"openflame/internal/wire"
)

// Source is one constituent map handed to the central operator. Local-frame
// maps must come with the precise alignment the operator would have
// surveyed.
type Source struct {
	Map       *osm.Map
	Alignment *align.GeoAlignment // required for FrameLocal maps
}

// System is the centralized mapping system.
type System struct {
	merged      *osm.Map
	store       *store.Store
	geocoder    *geocode.Geocoder
	searcher    *search.Searcher
	g           *graph.Graph
	ch          *graph.CH
	prerendered *tiles.Cache

	// PreprocessDuration records the last full preprocessing pass (E11's
	// centralized cost).
	PreprocessDuration time.Duration

	sources []Source
	profile graph.Profile
}

// Build ingests the sources and runs full preprocessing.
func Build(sources []Source, profile graph.Profile) (*System, error) {
	if profile == nil {
		profile = graph.FootProfile
	}
	// The system keeps its own source list: an update replaces a source's
	// map with a derived one and never touches the caller's.
	s := &System{sources: append([]Source(nil), sources...), profile: profile}
	if err := s.Rebuild(); err != nil {
		return nil, err
	}
	return s, nil
}

// Rebuild re-ingests every source and redoes all preprocessing — the global
// pipeline of Figure 1. Any change to any constituent map pays this cost.
func (s *System) Rebuild() error {
	start := time.Now()
	merged, err := MergeSources(s.sources)
	if err != nil {
		return err
	}
	s.merged = merged
	s.store = store.New(merged)
	s.geocoder = geocode.New(s.store)
	s.searcher = search.New(s.store)
	s.g = graph.FromOSM(merged, s.profile)
	s.ch = graph.BuildCH(s.g)
	s.prerendered = tiles.NewCache(tiles.NewRenderer(merged, tiles.DefaultStyle()))
	s.PreprocessDuration = time.Since(start)
	return nil
}

// PrerenderTiles fills the tile cache over the merged bounds for the zoom
// range, returning the number of tiles rendered.
func (s *System) PrerenderTiles(zMin, zMax int) (int, error) {
	return s.prerendered.Prerender(s.merged.Bounds(), zMin, zMax)
}

// MergeSources combines constituent maps into one geodetic map: node
// positions are converted through each source's alignment, IDs are
// remapped, and nodes sharing a portal tag are fused into a single node so
// routing crosses map boundaries natively.
func MergeSources(sources []Source) (*osm.Map, error) {
	merged := osm.NewBuilder("centralized-world", osm.Frame{Kind: osm.FrameGeodetic})
	portalNode := make(map[string]*osm.Node) // portal id → fused merged node
	for si, src := range sources {
		if src.Map == nil {
			return nil, fmt.Errorf("centralized: source %d has nil map", si)
		}
		if src.Map.Frame.Kind == osm.FrameLocal && src.Alignment == nil {
			return nil, fmt.Errorf("centralized: local-frame source %q lacks alignment", src.Map.Name)
		}
		remap := make(map[osm.NodeID]osm.NodeID)
		src.Map.Nodes(func(n *osm.Node) bool {
			var pos geo.LatLng
			if src.Map.Frame.Kind == osm.FrameLocal {
				pos = src.Alignment.ToWorld(n.Local)
			} else {
				pos = n.Pos
			}
			// Fuse portal nodes shared with an earlier source.
			if pid := n.Tags.Get(osm.TagPortalID); pid != "" {
				if en, ok := portalNode[pid]; ok {
					remap[n.ID] = en.ID
					// Merge tags into the existing node: the union replaces
					// it (same ID) as a fresh node.
					tags := en.Tags.Clone()
					if tags == nil {
						tags = osm.Tags{}
					}
					for k, v := range n.Tags {
						if !tags.Has(k) {
							tags[k] = v
						}
					}
					fused := &osm.Node{ID: en.ID, Pos: en.Pos, Local: en.Local, Tags: tags}
					merged.AddNode(fused)
					portalNode[pid] = fused
					return true
				}
			}
			mn := &osm.Node{Pos: pos, Tags: n.Tags.Clone()}
			remap[n.ID] = merged.AddNode(mn)
			if pid := n.Tags.Get(osm.TagPortalID); pid != "" {
				portalNode[pid] = mn
			}
			return true
		})
		var wayErr error
		src.Map.Ways(func(w *osm.Way) bool {
			ids := make([]osm.NodeID, len(w.NodeIDs))
			for i, old := range w.NodeIDs {
				ids[i] = remap[old]
			}
			if _, err := merged.AddWay(&osm.Way{NodeIDs: ids, Tags: w.Tags.Clone()}); err != nil {
				wayErr = err
				return false
			}
			return true
		})
		if wayErr != nil {
			return nil, wayErr
		}
	}
	return merged.Build(), nil
}

// Merged exposes the merged map (tests, tiles).
func (s *System) Merged() *osm.Map { return s.merged }

// Graph exposes the global routing graph.
func (s *System) Graph() *graph.Graph { return s.g }

// Geocode mirrors the map-server API against the global index.
func (s *System) Geocode(req wire.GeocodeRequest) wire.GeocodeResponse {
	var resp wire.GeocodeResponse
	for _, r := range s.geocoder.Forward(req.Query, req.Limit) {
		resp.Results = append(resp.Results, wire.GeocodeResult{
			NodeID: int64(r.NodeID), Name: r.Name, Position: r.Position,
			Score: r.Score, Address: r.Address,
		})
	}
	return resp
}

// RGeocode mirrors the map-server API.
func (s *System) RGeocode(req wire.RGeocodeRequest) wire.RGeocodeResponse {
	max := req.MaxMeters
	if max <= 0 {
		max = 250
	}
	r, ok := s.geocoder.Reverse(req.Position, max)
	if !ok {
		return wire.RGeocodeResponse{}
	}
	return wire.RGeocodeResponse{Found: true, Result: wire.GeocodeResult{
		NodeID: int64(r.NodeID), Name: r.Name, Position: r.Position,
		Score: r.Score, Address: r.Address,
	}}
}

// Search runs against the global index.
func (s *System) Search(req wire.SearchRequest) wire.SearchResponse {
	results := s.searcher.Search(req.Query, search.Options{
		Near:              req.Near,
		MaxDistanceMeters: req.MaxDistanceMeters,
		Limit:             req.Limit,
	})
	for i := range results {
		results[i].Source = "centralized"
	}
	return wire.SearchResponse{Results: results}
}

// Route answers from the globally preprocessed CH — the optimum the
// federated stitcher is measured against.
func (s *System) Route(req wire.RouteRequest) wire.RouteResponse {
	from := req.FromNode
	to := req.ToNode
	if from == 0 {
		id, ok := s.snap(req.From)
		if !ok {
			return wire.RouteResponse{}
		}
		from = id
	}
	if to == 0 {
		id, ok := s.snap(req.To)
		if !ok {
			return wire.RouteResponse{}
		}
		to = id
	}
	p, err := s.ch.Query(from, to)
	if err != nil {
		return wire.RouteResponse{}
	}
	resp := wire.RouteResponse{Found: true, CostSeconds: p.Cost}
	for _, id := range p.Nodes {
		n := s.merged.Node(osm.NodeID(id))
		if n == nil {
			continue
		}
		resp.Points = append(resp.Points, wire.RoutePoint{NodeID: id, Position: n.Pos})
	}
	for i := 1; i < len(resp.Points); i++ {
		resp.LengthMeters += geo.DistanceMeters(resp.Points[i-1].Position, resp.Points[i].Position)
	}
	return resp
}

func (s *System) snap(ll geo.LatLng) (int64, bool) {
	if snap, ok := s.store.SnapToWay(ll, 250); ok && s.g.HasNode(int64(snap.NodeID)) {
		return int64(snap.NodeID), true
	}
	for _, hit := range s.store.NearestNodes(ll, 16, 500) {
		if s.g.HasNode(int64(hit.Node.ID)) {
			return int64(hit.Node.ID), true
		}
	}
	return 0, false
}

// Tile serves from the pre-rendered cache.
func (s *System) Tile(c tiles.Coord) ([]byte, error) {
	if !c.Valid() {
		return nil, fmt.Errorf("centralized: tile %v out of range", c)
	}
	return s.prerendered.Get(c)
}

// UpdateAndRebuild applies a tag update to a merged node and pays the full
// preprocessing cost — the centralized update path measured by E11.
func (s *System) UpdateAndRebuild(src int, nodeInSource osm.NodeID, tags osm.Tags) error {
	if src < 0 || src >= len(s.sources) {
		return fmt.Errorf("centralized: bad source index %d", src)
	}
	n := s.sources[src].Map.Node(nodeInSource)
	if n == nil {
		return fmt.Errorf("centralized: node %d not in source %d", nodeInSource, src)
	}
	// Derive the source's next map: a built map is never written in place.
	s.sources[src].Map = s.sources[src].Map.WithNode(&osm.Node{ID: n.ID, Pos: n.Pos, Local: n.Local, Tags: tags})
	return s.Rebuild()
}
