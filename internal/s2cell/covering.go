package s2cell

import (
	"sort"

	"openflame/internal/geo"
)

// Region is a shape on the sphere that a covering approximates. Its one
// predicate operates on latitude/longitude rectangles because cell bounds
// are rectangles; it may be conservative (returning true when uncertain)
// but must never report false for a rectangle that truly intersects.
type Region interface {
	// IntersectsRect reports whether the region may intersect r.
	IntersectsRect(r geo.Rect) bool
}

// RectRegion adapts a geo.Rect to the Region interface.
type RectRegion struct{ Rect geo.Rect }

// IntersectsRect implements Region.
func (r RectRegion) IntersectsRect(q geo.Rect) bool { return r.Rect.Intersects(q) }

// CapRegion adapts a geo.Cap to the Region interface.
type CapRegion struct{ Cap geo.Cap }

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

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Covering returns cells at exactly the given level whose bounds intersect
// the region. If the result would exceed maxCells (<=0 means unlimited), the
// level is coarsened until it fits, so the result may be at a coarser level
// than requested. When even the level-0 covering exceeds maxCells (the
// region touches more faces than maxCells allows), every face cell the
// region touches is returned regardless of maxCells.
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
// maxLevel: the region is covered at maxLevel, then every complete sibling
// quadruple of covering cells is replaced by its parent, repeatedly, no
// coarser than minLevel. A parent is exactly the union of its four
// children, so merging never changes the covered area and tests no cell
// for containment in the region. This is the set of cells a map server
// registers in the discovery DNS.
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
