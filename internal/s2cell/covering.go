package s2cell

import (
	"sort"

	"openflame/internal/geo"
)

// Region is a shape on the sphere that a covering approximates. The two
// predicates operate on latitude/longitude rectangles because cell bounds
// are rectangles; they may be conservative (returning true when uncertain)
// but must never report false for a rectangle that truly intersects or is
// contained.
type Region interface {
	// Bound returns a rectangle containing the region.
	Bound() geo.Rect
	// IntersectsRect reports whether the region may intersect r.
	IntersectsRect(r geo.Rect) bool
	// ContainsRect reports whether the region definitely contains all of r.
	ContainsRect(r geo.Rect) bool
}

// RectRegion adapts a geo.Rect to the Region interface.
type RectRegion struct{ Rect geo.Rect }

// Bound implements Region.
func (r RectRegion) Bound() geo.Rect { return r.Rect }

// IntersectsRect implements Region.
func (r RectRegion) IntersectsRect(q geo.Rect) bool { return r.Rect.Intersects(q) }

// ContainsRect implements Region.
func (r RectRegion) ContainsRect(q geo.Rect) bool { return r.Rect.ContainsRect(q) }

// CapRegion adapts a geo.Cap to the Region interface.
type CapRegion struct{ Cap geo.Cap }

// Bound implements Region.
func (c CapRegion) Bound() geo.Rect { return c.Cap.Bound() }

// IntersectsRect implements Region.
func (c CapRegion) IntersectsRect(r geo.Rect) bool {
	if r.IsEmpty() {
		return false
	}
	// Distance from cap center to the closest point of the rectangle.
	lat := clamp(c.Cap.Center.Lat, r.MinLat, r.MaxLat)
	lng := clamp(c.Cap.Center.Lng, r.MinLng, r.MaxLng)
	return geo.DistanceMeters(c.Cap.Center, geo.LatLng{Lat: lat, Lng: lng}) <= c.Cap.RadiusMeters
}

// ContainsRect implements Region.
func (c CapRegion) ContainsRect(r geo.Rect) bool {
	if r.IsEmpty() {
		return true
	}
	for _, v := range r.Vertices() {
		if !c.Cap.Contains(v) {
			return false
		}
	}
	return true
}

// PolygonRegion adapts a geo.Polygon to the Region interface.
type PolygonRegion struct{ Polygon geo.Polygon }

// Bound implements Region.
func (p PolygonRegion) Bound() geo.Rect { return p.Polygon.Bound() }

// IntersectsRect implements Region.
func (p PolygonRegion) IntersectsRect(r geo.Rect) bool {
	if !p.Polygon.Bound().Intersects(r) {
		return false
	}
	// Any polygon vertex inside the rect?
	for _, v := range p.Polygon.Vertices {
		if r.Contains(v) {
			return true
		}
	}
	// Any rect corner inside the polygon?
	for _, v := range r.Vertices() {
		if p.Polygon.Contains(v) {
			return true
		}
	}
	// Any edge crossing?
	rv := r.Vertices()
	n := len(p.Polygon.Vertices)
	for i := 0; i < n; i++ {
		a := p.Polygon.Vertices[i]
		b := p.Polygon.Vertices[(i+1)%n]
		for j := 0; j < 4; j++ {
			if segmentsCross(a, b, rv[j], rv[(j+1)%4]) {
				return true
			}
		}
	}
	return false
}

// ContainsRect implements Region.
func (p PolygonRegion) ContainsRect(r geo.Rect) bool {
	if r.IsEmpty() {
		return true
	}
	for _, v := range r.Vertices() {
		if !p.Polygon.Contains(v) {
			return false
		}
	}
	// All corners inside and no edge crossing means full containment for
	// simple polygons.
	rv := r.Vertices()
	n := len(p.Polygon.Vertices)
	for i := 0; i < n; i++ {
		a := p.Polygon.Vertices[i]
		b := p.Polygon.Vertices[(i+1)%n]
		for j := 0; j < 4; j++ {
			if segmentsCross(a, b, rv[j], rv[(j+1)%4]) {
				return false
			}
		}
	}
	return true
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// segmentsCross reports whether segments ab and cd properly intersect,
// treating lat/lng as planar coordinates.
func segmentsCross(a, b, c, d geo.LatLng) bool {
	o1 := orient(a, b, c)
	o2 := orient(a, b, d)
	o3 := orient(c, d, a)
	o4 := orient(c, d, b)
	return o1*o2 < 0 && o3*o4 < 0
}

func orient(a, b, c geo.LatLng) float64 {
	return (b.Lng-a.Lng)*(c.Lat-a.Lat) - (b.Lat-a.Lat)*(c.Lng-a.Lng)
}

// Covering returns cells at exactly the given level whose bounds intersect
// the region. If the result would exceed maxCells (<=0 means unlimited), the
// level is coarsened until it fits, so the result may be at a coarser level
// than requested but never exceeds maxCells.
func Covering(r Region, level, maxCells int) []CellID {
	for l := level; l >= 0; l-- {
		if cells, ok := coverAtLevel(r, l, maxCells); ok {
			return cells
		}
	}
	cells, _ := coverAtLevel(r, 0, 0)
	return cells
}

// coverAtLevel returns the level-l covering and whether it fit within
// maxCells (maxCells <= 0 disables the limit).
func coverAtLevel(r Region, level, maxCells int) ([]CellID, bool) {
	var out []CellID
	var descend func(c CellID) bool
	descend = func(c CellID) bool {
		hit := false
		for _, b := range c.BoundRects() {
			if r.IntersectsRect(b) {
				hit = true
				break
			}
		}
		if !hit {
			return true
		}
		if c.Level() == level {
			out = append(out, c)
			return maxCells <= 0 || len(out) <= maxCells
		}
		for _, ch := range c.Children() {
			if !descend(ch) {
				return false
			}
		}
		return true
	}
	for f := 0; f < numFaces; f++ {
		if !descend(FromFace(f)) {
			return nil, false
		}
	}
	sortCells(out)
	return out, true
}

// RegistrationCovering returns a mixed-level covering between minLevel and
// maxLevel: the region is covered at maxLevel, cells fully inside the region
// are merged upward (four present siblings collapse into their parent, no
// coarser than minLevel). This is the set of cells a map server registers in
// the discovery DNS.
func RegistrationCovering(r Region, minLevel, maxLevel int) []CellID {
	if minLevel > maxLevel {
		minLevel = maxLevel
	}
	cells, _ := coverAtLevel(r, maxLevel, 0)
	return normalize(cells, minLevel)
}

// normalize repeatedly replaces complete sibling quadruples with their
// parent, never going coarser than minLevel.
func normalize(cells []CellID, minLevel int) []CellID {
	sortCells(cells)
	for {
		merged := false
		var out []CellID
		for i := 0; i < len(cells); {
			c := cells[i]
			if c.Level() > minLevel && i+3 < len(cells) {
				parent := c.ImmediateParent()
				kids := parent.Children()
				if cells[i] == kids[0] && cells[i+1] == kids[1] &&
					cells[i+2] == kids[2] && cells[i+3] == kids[3] {
					out = append(out, parent)
					i += 4
					merged = true
					continue
				}
			}
			out = append(out, c)
			i++
		}
		cells = out
		if !merged {
			return cells
		}
	}
}

func sortCells(cells []CellID) {
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
}
