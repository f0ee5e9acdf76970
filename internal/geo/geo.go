// Package geo provides the geodetic and planar geometry primitives used
// throughout OpenFLAME: latitude/longitude points, great-circle distance,
// bounding rectangles, spherical caps, and the local tangent-plane
// projections needed to relate indoor metric frames to geodetic coordinates.
//
// Conventions: latitudes and longitudes are in degrees; distances are in
// meters; planar coordinates (Point) are meters east (X) and north (Y) of a
// frame origin.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius (IUGG R1).
const EarthRadiusMeters = 6371008.8

// DegToRad converts degrees to radians.
func DegToRad(d float64) float64 { return d * math.Pi / 180 }

// RadToDeg converts radians to degrees.
func RadToDeg(r float64) float64 { return r * 180 / math.Pi }

// LatLng is a geodetic position in degrees.
type LatLng struct {
	Lat float64 `json:"lat"`
	Lng float64 `json:"lng"`
}

// String implements fmt.Stringer.
func (ll LatLng) String() string { return fmt.Sprintf("(%.6f,%.6f)", ll.Lat, ll.Lng) }

// IsValid reports whether the position is a plausible geodetic coordinate.
func (ll LatLng) IsValid() bool {
	return ll.Lat >= -90 && ll.Lat <= 90 && ll.Lng >= -180 && ll.Lng <= 180 &&
		!math.IsNaN(ll.Lat) && !math.IsNaN(ll.Lng)
}

// Normalized returns the position with latitude clamped to [-90, 90] and
// longitude wrapped to [-180, 180].
func (ll LatLng) Normalized() LatLng {
	lat := math.Max(-90, math.Min(90, ll.Lat))
	lng := math.Mod(ll.Lng, 360)
	if lng > 180 {
		lng -= 360
	} else if lng < -180 {
		lng += 360
	}
	return LatLng{Lat: lat, Lng: lng}
}

// DistanceMeters returns the great-circle (haversine) distance between two
// positions in meters.
func DistanceMeters(a, b LatLng) float64 {
	lat1 := DegToRad(a.Lat)
	lat2 := DegToRad(b.Lat)
	dLat := DegToRad(b.Lat - a.Lat)
	dLng := DegToRad(b.Lng - a.Lng)
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLng / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(h))
}

// InitialBearing returns the initial great-circle bearing from a to b in
// degrees clockwise from true north, in [0, 360).
func InitialBearing(a, b LatLng) float64 {
	lat1 := DegToRad(a.Lat)
	lat2 := DegToRad(b.Lat)
	dLng := DegToRad(b.Lng - a.Lng)
	y := math.Sin(dLng) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLng)
	brg := RadToDeg(math.Atan2(y, x))
	if brg < 0 {
		brg += 360
	}
	return brg
}

// Offset returns the position reached by travelling distanceMeters from ll on
// the given initial bearing (degrees clockwise from north).
func Offset(ll LatLng, distanceMeters, bearingDeg float64) LatLng {
	ad := distanceMeters / EarthRadiusMeters
	brg := DegToRad(bearingDeg)
	lat1 := DegToRad(ll.Lat)
	lng1 := DegToRad(ll.Lng)
	lat2 := math.Asin(math.Sin(lat1)*math.Cos(ad) + math.Cos(lat1)*math.Sin(ad)*math.Cos(brg))
	lng2 := lng1 + math.Atan2(math.Sin(brg)*math.Sin(ad)*math.Cos(lat1),
		math.Cos(ad)-math.Sin(lat1)*math.Sin(lat2))
	return LatLng{Lat: RadToDeg(lat2), Lng: RadToDeg(lng2)}.Normalized()
}

// Point is a planar position in meters within a local frame: X east, Y north.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Norm returns the Euclidean length of p.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dot returns the dot product of p and q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Rect is a latitude/longitude axis-aligned rectangle. Rectangles crossing
// the antimeridian are not supported; callers split them beforehand.
type Rect struct {
	MinLat float64 `json:"minLat"`
	MinLng float64 `json:"minLng"`
	MaxLat float64 `json:"maxLat"`
	MaxLng float64 `json:"maxLng"`
}

// EmptyRect returns the canonical empty rectangle, to be extended with Union
// or ExpandToInclude.
func EmptyRect() Rect {
	return Rect{MinLat: 91, MinLng: 181, MaxLat: -91, MaxLng: -181}
}

// RectFromCenter builds the rectangle spanning halfLatDeg/halfLngDeg degrees
// on each side of center.
func RectFromCenter(center LatLng, halfLatDeg, halfLngDeg float64) Rect {
	return Rect{
		MinLat: center.Lat - halfLatDeg, MinLng: center.Lng - halfLngDeg,
		MaxLat: center.Lat + halfLatDeg, MaxLng: center.Lng + halfLngDeg,
	}
}

// IsEmpty reports whether the rectangle contains no points.
func (r Rect) IsEmpty() bool { return r.MinLat > r.MaxLat || r.MinLng > r.MaxLng }

// Contains reports whether ll lies inside the rectangle (inclusive).
func (r Rect) Contains(ll LatLng) bool {
	return ll.Lat >= r.MinLat && ll.Lat <= r.MaxLat && ll.Lng >= r.MinLng && ll.Lng <= r.MaxLng
}

// Intersects reports whether r and s share any point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinLat <= s.MaxLat && s.MinLat <= r.MaxLat && r.MinLng <= s.MaxLng && s.MinLng <= r.MaxLng
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinLat: math.Min(r.MinLat, s.MinLat), MinLng: math.Min(r.MinLng, s.MinLng),
		MaxLat: math.Max(r.MaxLat, s.MaxLat), MaxLng: math.Max(r.MaxLng, s.MaxLng),
	}
}

// ExpandToInclude grows the rectangle to contain ll.
func (r Rect) ExpandToInclude(ll LatLng) Rect {
	return r.Union(Rect{MinLat: ll.Lat, MinLng: ll.Lng, MaxLat: ll.Lat, MaxLng: ll.Lng})
}

// Expanded returns the rectangle grown by dLat/dLng degrees on each side.
func (r Rect) Expanded(dLat, dLng float64) Rect {
	if r.IsEmpty() {
		return r
	}
	return Rect{MinLat: r.MinLat - dLat, MinLng: r.MinLng - dLng,
		MaxLat: r.MaxLat + dLat, MaxLng: r.MaxLng + dLng}
}

// ExpandedMeters returns the rectangle grown by approximately m meters on
// each side, using the local meters-per-degree scale at the rect center.
func (r Rect) ExpandedMeters(m float64) Rect {
	if r.IsEmpty() {
		return r
	}
	c := r.Center()
	dLat := m / MetersPerDegreeLat
	cos := math.Cos(DegToRad(c.Lat))
	if cos < 0.01 {
		cos = 0.01
	}
	dLng := m / (MetersPerDegreeLat * cos)
	return r.Expanded(dLat, dLng)
}

// Center returns the rectangle's center point.
func (r Rect) Center() LatLng {
	return LatLng{Lat: (r.MinLat + r.MaxLat) / 2, Lng: (r.MinLng + r.MaxLng) / 2}
}

// MetersPerDegreeLat is the approximate length of one degree of latitude.
const MetersPerDegreeLat = EarthRadiusMeters * math.Pi / 180

// Cap is a spherical cap: all points within RadiusMeters of Center.
type Cap struct {
	Center       LatLng  `json:"center"`
	RadiusMeters float64 `json:"radiusMeters"`
}

// LocalProjection is an equirectangular projection tangent at an origin,
// mapping geodetic coordinates to a planar metric frame (X east, Y north).
// It is accurate to well under a meter at building-to-city scales.
type LocalProjection struct {
	Origin LatLng
	cosLat float64
}

// NewLocalProjection creates a projection centered at origin.
func NewLocalProjection(origin LatLng) *LocalProjection {
	cos := math.Cos(DegToRad(origin.Lat))
	if cos < 1e-6 {
		cos = 1e-6
	}
	return &LocalProjection{Origin: origin, cosLat: cos}
}

// ToPoint projects ll into the local frame.
func (lp *LocalProjection) ToPoint(ll LatLng) Point {
	return Point{
		X: (ll.Lng - lp.Origin.Lng) * MetersPerDegreeLat * lp.cosLat,
		Y: (ll.Lat - lp.Origin.Lat) * MetersPerDegreeLat,
	}
}

// ToLatLng unprojects a local-frame point back to geodetic coordinates.
func (lp *LocalProjection) ToLatLng(p Point) LatLng {
	return LatLng{
		Lat: lp.Origin.Lat + p.Y/MetersPerDegreeLat,
		Lng: lp.Origin.Lng + p.X/(MetersPerDegreeLat*lp.cosLat),
	}
}

// Interpolate returns the point a fraction f along the segment from a to b
// (linear in lat/lng space; adequate at sub-kilometer scales).
func Interpolate(a, b LatLng, f float64) LatLng {
	return LatLng{Lat: a.Lat + (b.Lat-a.Lat)*f, Lng: a.Lng + (b.Lng-a.Lng)*f}
}

// ClosestPointOnSegment returns the point on segment [a,b] closest to p, and
// the fraction along the segment at which it occurs, working in the local
// projection around a.
func ClosestPointOnSegment(p, a, b LatLng) (LatLng, float64) {
	pr := NewLocalProjection(a)
	pp := pr.ToPoint(p)
	bb := pr.ToPoint(b)
	den := bb.Dot(bb)
	if den == 0 {
		return a, 0
	}
	t := pp.Dot(bb) / den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return pr.ToLatLng(bb.Scale(t)), t
}
