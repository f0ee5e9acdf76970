// Package s2cell implements an S2-style hierarchical decomposition of the
// sphere: the six faces of a cube are projected onto the sphere and each face
// is recursively divided into four children, with cells at each level ordered
// along a Hilbert space-filling curve.
//
// This is a from-scratch reimplementation of the indexing core of the S2
// library the paper cites (§5.1 [15]). Cell IDs here are structurally
// identical to S2's (64-bit: 3 face bits, two bits per level along the
// Hilbert curve, a trailing marker bit) and have the same properties the
// discovery layer relies on — hierarchical containment is a prefix relation,
// tokens are compact, and spatially close points receive numerically close
// IDs — but tokens are not guaranteed to be byte-compatible with Google S2.
package s2cell

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"openflame/internal/geo"
)

const (
	// MaxLevel is the finest subdivision level. A level-30 cell is under
	// a centimeter across.
	MaxLevel = 30

	numFaces = 6
	posBits  = 2*MaxLevel + 1 // 61
	maxSize  = 1 << MaxLevel

	swapMask   = 0x01
	invertMask = 0x02
)

// Hilbert curve traversal tables. posToIJ[orientation][position] gives the
// (i<<1|j) quadrant visited at that position of the curve; ijToPos is the
// per-orientation inverse; posToOrientation gives the orientation change
// entering each position.
var (
	posToIJ = [4][4]int{
		{0, 1, 3, 2}, // canonical
		{0, 2, 3, 1}, // axes swapped
		{3, 2, 0, 1}, // bits inverted
		{3, 1, 0, 2}, // swapped & inverted
	}
	ijToPos = [4][4]int{
		{0, 1, 3, 2},
		{0, 3, 1, 2},
		{2, 3, 1, 0},
		{2, 1, 3, 0},
	}
	posToOrientation = [4]int{swapMask, 0, 0, invertMask | swapMask}
)

// CellID identifies a cell in the hierarchy. The zero value is invalid.
type CellID uint64

// FromLatLng returns the leaf cell (level 30) containing ll.
func FromLatLng(ll geo.LatLng) CellID {
	face, u, v := xyzToFaceUV(latLngToXYZ(ll))
	i := stToIJ(uvToST(u))
	j := stToIJ(uvToST(v))
	return fromFaceIJ(face, i, j, MaxLevel)
}

// FromLatLngLevel returns the cell at the given level containing ll.
func FromLatLngLevel(ll geo.LatLng, level int) CellID {
	return FromLatLng(ll).Parent(level)
}

// FromFace returns the top-level cell for face (0..5).
func FromFace(face int) CellID {
	return CellID(uint64(face)<<posBits | 1<<(posBits-1))
}

// IsValid reports whether the cell ID is well formed: a known face and a
// trailing marker bit at an even position no deeper than MaxLevel.
func (c CellID) IsValid() bool {
	if c == 0 || c.Face() >= numFaces {
		return false
	}
	tz := bits.TrailingZeros64(uint64(c))
	return tz%2 == 0 && tz <= 2*MaxLevel
}

// Level returns the subdivision level of the cell (0..30).
func (c CellID) Level() int {
	return MaxLevel - bits.TrailingZeros64(uint64(c))/2
}

// Face returns the cube face (0..5) of the cell.
func (c CellID) Face() int { return int(c >> posBits) }

// lsb returns the lowest set bit of the ID.
func (c CellID) lsb() uint64 { return uint64(c) & -uint64(c) }

func lsbForLevel(level int) uint64 { return 1 << uint(2*(MaxLevel-level)) }

// Parent returns the ancestor cell at the given level, which must be at most
// c.Level().
func (c CellID) Parent(level int) CellID {
	lsb := lsbForLevel(level)
	return CellID((uint64(c) & -lsb) | lsb)
}

// ImmediateParent returns the parent one level up.
func (c CellID) ImmediateParent() CellID { return c.Parent(c.Level() - 1) }

// Children returns the four child cells in Hilbert order. Calling Children
// on a leaf returns the cell four times.
func (c CellID) Children() [4]CellID {
	var out [4]CellID
	lsb := c.lsb()
	if lsb == 1 {
		return [4]CellID{c, c, c, c}
	}
	childLsb := lsb >> 2
	base := uint64(c) - lsb + childLsb
	for i := 0; i < 4; i++ {
		out[i] = CellID(base + uint64(i)*childLsb*2)
	}
	return out
}

// RangeMin returns the first leaf cell contained in c.
func (c CellID) RangeMin() CellID { return CellID(uint64(c) - c.lsb() + 1) }

// RangeMax returns the last leaf cell contained in c.
func (c CellID) RangeMax() CellID { return CellID(uint64(c) + c.lsb() - 1) }

// Contains reports whether c contains o (including c == o).
func (c CellID) Contains(o CellID) bool {
	return uint64(o) >= uint64(c.RangeMin()) && uint64(o) <= uint64(c.RangeMax())
}

// Intersects reports whether the two cells overlap (one contains the other).
func (c CellID) Intersects(o CellID) bool {
	return c.Contains(o) || o.Contains(c)
}

// Token returns the compact hexadecimal representation: the 16-digit hex ID
// with trailing zeros stripped ("X" for the zero/invalid ID).
func (c CellID) Token() string {
	if c == 0 {
		return "X"
	}
	s := fmt.Sprintf("%016x", uint64(c))
	return strings.TrimRight(s, "0")
}

// FromToken parses a token produced by Token. Invalid tokens return 0.
func FromToken(tok string) CellID {
	if tok == "" || tok == "X" || len(tok) > 16 {
		return 0
	}
	v, err := strconv.ParseUint(tok+strings.Repeat("0", 16-len(tok)), 16, 64)
	if err != nil {
		return 0
	}
	return CellID(v)
}

// String implements fmt.Stringer with face/level/token detail.
func (c CellID) String() string {
	return fmt.Sprintf("cell(f%d L%d %s)", c.Face(), c.Level(), c.Token())
}

// --- face/i/j encoding ---

// fromFaceIJ builds the cell at the given level from leaf-resolution i,j
// coordinates on the face (only the top `level` bits of i and j are used).
func fromFaceIJ(face, i, j, level int) CellID {
	pos := uint64(0)
	o := 0
	for k := MaxLevel - 1; k >= MaxLevel-level; k-- {
		iBit := (i >> uint(k)) & 1
		jBit := (j >> uint(k)) & 1
		p := ijToPos[o][iBit<<1|jBit]
		pos = pos<<2 | uint64(p)
		o ^= posToOrientation[p]
	}
	shift := uint(2*(MaxLevel-level) + 1)
	return CellID(uint64(face)<<posBits | pos<<shift | 1<<(shift-1))
}

// faceIJ decodes the cell into its face and the i,j coordinates of its
// minimum corner at cell resolution (i.e. in [0, 2^level)).
func (c CellID) faceIJ() (face, i, j, level int) {
	face = c.Face()
	level = c.Level()
	shift := uint(2*(MaxLevel-level) + 1)
	pos := (uint64(c) >> shift) & ((1 << uint(2*level)) - 1)
	o := 0
	for k := level - 1; k >= 0; k-- {
		p := int((pos >> uint(2*k)) & 3)
		ij := posToIJ[o][p]
		i = i<<1 | ij>>1
		j = j<<1 | ij&1
		o ^= posToOrientation[p]
	}
	return face, i, j, level
}

// LatLng returns the center of the cell.
func (c CellID) LatLng() geo.LatLng {
	face, i, j, level := c.faceIJ()
	size := 1.0 / float64(uint64(1)<<uint(level))
	s := (float64(i) + 0.5) * size
	t := (float64(j) + 0.5) * size
	return xyzToLatLng(faceUVToXYZ(face, stToUV(s), stToUV(t)))
}

// Vertices returns the four corners of the cell in counter-clockwise order.
func (c CellID) Vertices() [4]geo.LatLng {
	face, i, j, level := c.faceIJ()
	size := 1.0 / float64(uint64(1)<<uint(level))
	s0, t0 := float64(i)*size, float64(j)*size
	s1, t1 := s0+size, t0+size
	return [4]geo.LatLng{
		xyzToLatLng(faceUVToXYZ(face, stToUV(s0), stToUV(t0))),
		xyzToLatLng(faceUVToXYZ(face, stToUV(s1), stToUV(t0))),
		xyzToLatLng(faceUVToXYZ(face, stToUV(s1), stToUV(t1))),
		xyzToLatLng(faceUVToXYZ(face, stToUV(s0), stToUV(t1))),
	}
}

// BoundRects returns one or two non-wrapping latitude/longitude rectangles
// that together contain the cell, computed from the cell's corners, edge
// midpoints and center and padded slightly. Cells crossing the antimeridian
// yield two rectangles; cells containing a pole yield a full-longitude
// rectangle extended to that pole.
func (c CellID) BoundRects() []geo.Rect {
	face, i, j, level := c.faceIJ()
	size := 1.0 / float64(uint64(1)<<uint(level))
	s0, t0 := float64(i)*size, float64(j)*size
	var samples []geo.LatLng
	for _, fs := range []float64{0, 0.5, 1} {
		for _, ft := range []float64{0, 0.5, 1} {
			samples = append(samples,
				xyzToLatLng(faceUVToXYZ(face, stToUV(s0+fs*size), stToUV(t0+ft*size))))
		}
	}
	r := geo.EmptyRect()
	for _, ll := range samples {
		r = r.ExpandToInclude(ll)
	}
	pad := func(q geo.Rect) geo.Rect {
		return q.Expanded((q.MaxLat-q.MinLat)*0.01+1e-9, (q.MaxLng-q.MinLng)*0.01+1e-9)
	}
	if r.MaxLng-r.MinLng <= 180 {
		return []geo.Rect{pad(r)}
	}
	// The cell's longitudes wrap. If the cell contains a pole (the cube
	// face center of the ±z faces), its true bound spans all longitudes.
	if face == 2 || face == 5 {
		half := maxSize / 2
		cellSpan := 1 << uint(MaxLevel-level)
		iMin, jMin := i<<uint(MaxLevel-level), j<<uint(MaxLevel-level)
		if iMin <= half && half <= iMin+cellSpan && jMin <= half && half <= jMin+cellSpan {
			out := geo.Rect{MinLat: r.MinLat, MaxLat: r.MaxLat, MinLng: -180, MaxLng: 180}
			if face == 2 {
				out.MaxLat = 90
			} else {
				out.MinLat = -90
			}
			return []geo.Rect{out}
		}
	}
	// Antimeridian crossing: split samples by longitude sign.
	east := geo.EmptyRect() // positive longitudes, up to 180
	west := geo.EmptyRect() // negative longitudes, down to -180
	for _, ll := range samples {
		if ll.Lng >= 0 {
			east = east.ExpandToInclude(ll)
		} else {
			west = west.ExpandToInclude(ll)
		}
	}
	east.MaxLng = 180
	west.MinLng = -180
	east.MinLat, west.MinLat = r.MinLat, r.MinLat
	east.MaxLat, west.MaxLat = r.MaxLat, r.MaxLat
	return []geo.Rect{pad(east), pad(west)}
}

// ChildPosition returns the cell's 2-bit Hilbert position (0..3) within its
// ancestor at level-1, for 1 <= level <= c.Level(). It is the quadrant
// label used to build discovery domain names.
func (c CellID) ChildPosition(level int) int {
	return int(uint64(c)>>uint(2*(MaxLevel-level)+1)) & 3
}

// ApproxEdgeMeters returns the approximate edge length of cells at the given
// level: a quarter of the Earth's circumference divided by 2^level.
func ApproxEdgeMeters(level int) float64 {
	return (math.Pi * geo.EarthRadiusMeters / 2) / float64(uint64(1)<<uint(level))
}

// --- sphere <-> cube projections ---

type xyz struct{ x, y, z float64 }

func latLngToXYZ(ll geo.LatLng) xyz {
	phi := geo.DegToRad(ll.Lat)
	theta := geo.DegToRad(ll.Lng)
	cos := math.Cos(phi)
	return xyz{cos * math.Cos(theta), cos * math.Sin(theta), math.Sin(phi)}
}

func xyzToLatLng(p xyz) geo.LatLng {
	return geo.LatLng{
		Lat: geo.RadToDeg(math.Atan2(p.z, math.Hypot(p.x, p.y))),
		Lng: geo.RadToDeg(math.Atan2(p.y, p.x)),
	}
}

// xyzToFaceUV projects a point on the sphere onto the cube, returning the
// face and the (u,v) coordinates on that face in [-1,1].
func xyzToFaceUV(p xyz) (face int, u, v float64) {
	ax, ay, az := math.Abs(p.x), math.Abs(p.y), math.Abs(p.z)
	switch {
	case ax >= ay && ax >= az:
		if p.x >= 0 {
			face = 0
		} else {
			face = 3
		}
	case ay >= ax && ay >= az:
		if p.y >= 0 {
			face = 1
		} else {
			face = 4
		}
	default:
		if p.z >= 0 {
			face = 2
		} else {
			face = 5
		}
	}
	switch face {
	case 0:
		u, v = p.y/p.x, p.z/p.x
	case 1:
		u, v = -p.x/p.y, p.z/p.y
	case 2:
		u, v = -p.x/p.z, -p.y/p.z
	case 3:
		u, v = p.z/p.x, p.y/p.x
	case 4:
		u, v = p.z/p.y, -p.x/p.y
	case 5:
		u, v = -p.y/p.z, -p.x/p.z
	}
	return face, u, v
}

// faceUVToXYZ is the inverse of xyzToFaceUV (result is not normalized; only
// its direction matters).
func faceUVToXYZ(face int, u, v float64) xyz {
	switch face {
	case 0:
		return xyz{1, u, v}
	case 1:
		return xyz{-u, 1, v}
	case 2:
		return xyz{-u, -v, 1}
	case 3:
		return xyz{-1, -v, -u}
	case 4:
		return xyz{v, -1, -u}
	default:
		return xyz{v, u, -1}
	}
}

// stToUV applies S2's quadratic reprojection, which equalizes cell areas
// across a face.
func stToUV(s float64) float64 {
	if s >= 0.5 {
		return (1.0 / 3) * (4*s*s - 1)
	}
	return (1.0 / 3) * (1 - 4*(1-s)*(1-s))
}

// uvToST is the inverse of stToUV.
func uvToST(u float64) float64 {
	if u >= 0 {
		return 0.5 * math.Sqrt(1+3*u)
	}
	return 1 - 0.5*math.Sqrt(1-3*u)
}

// stToIJ converts an st coordinate in [0,1] to a leaf-resolution integer.
func stToIJ(s float64) int {
	i := int(math.Floor(float64(maxSize) * s))
	if i < 0 {
		return 0
	}
	if i > maxSize-1 {
		return maxSize - 1
	}
	return i
}
