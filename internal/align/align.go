// Package align estimates the coordinate transforms that relate
// heterogeneous map frames (§2.1): a 2-D similarity (scale, rotation,
// translation) fitted by least squares to manual point correspondences, the
// approach of MapCruncher [8]. Indoor maps precisely aligned only to their
// own frame are related to the geodetic frame through these transforms for
// tile stitching and cross-map routing.
package align

import (
	"errors"
	"fmt"
	"math"

	"openflame/internal/geo"
)

// Similarity2 is a planar similarity transform: Apply(p) = s·R(θ)·p + t.
type Similarity2 struct {
	Scale    float64   // s > 0
	Rotation float64   // θ in radians, counter-clockwise
	T        geo.Point // translation
}

// Apply maps p through the transform.
func (m Similarity2) Apply(p geo.Point) geo.Point {
	s, c := math.Sincos(m.Rotation)
	return geo.Point{
		X: m.Scale*(c*p.X-s*p.Y) + m.T.X,
		Y: m.Scale*(s*p.X+c*p.Y) + m.T.Y,
	}
}

// Inverse returns the transform undoing m.
func (m Similarity2) Inverse() Similarity2 {
	inv := Similarity2{Scale: 1 / m.Scale, Rotation: -m.Rotation}
	it := inv.Apply(m.T)
	inv.T = geo.Point{X: -it.X, Y: -it.Y}
	return inv
}

// String implements fmt.Stringer.
func (m Similarity2) String() string {
	return fmt.Sprintf("sim(s=%.4f θ=%.2f° t=(%.2f,%.2f))",
		m.Scale, geo.RadToDeg(m.Rotation), m.T.X, m.T.Y)
}

// ErrDegenerate indicates the correspondences do not determine a transform.
var ErrDegenerate = errors.New("align: degenerate correspondences")

// Fit estimates the similarity transform mapping src[i] → dst[i] by least
// squares (closed-form 2-D Umeyama). At least two distinct points are
// required.
func Fit(src, dst []geo.Point) (Similarity2, error) {
	if len(src) != len(dst) || len(src) < 2 {
		return Similarity2{}, ErrDegenerate
	}
	n := float64(len(src))
	var cs, cd geo.Point
	for i := range src {
		cs = cs.Add(src[i])
		cd = cd.Add(dst[i])
	}
	cs = cs.Scale(1 / n)
	cd = cd.Scale(1 / n)
	var a, b, den float64
	for i := range src {
		p := src[i].Sub(cs)
		q := dst[i].Sub(cd)
		a += p.X*q.X + p.Y*q.Y // Σ p·q
		b += p.X*q.Y - p.Y*q.X // Σ p×q
		den += p.X*p.X + p.Y*p.Y
	}
	if den == 0 {
		return Similarity2{}, ErrDegenerate
	}
	sc := math.Hypot(a, b) / den
	if sc == 0 || math.IsNaN(sc) {
		return Similarity2{}, ErrDegenerate
	}
	theta := math.Atan2(b, a)
	m := Similarity2{Scale: sc, Rotation: theta}
	rc := m.Apply(cs)
	m.T = cd.Sub(rc)
	return m, nil
}

// RMSE returns the root-mean-square residual of the transform over the
// correspondences.
func RMSE(m Similarity2, src, dst []geo.Point) float64 {
	if len(src) == 0 {
		return 0
	}
	var sum float64
	for i := range src {
		d := m.Apply(src[i]).Sub(dst[i])
		sum += d.X*d.X + d.Y*d.Y
	}
	return math.Sqrt(sum / float64(len(src)))
}

// Correspondence pairs a point in a map's local frame with its true world
// position — the "manual correspondences between maps" of §5.2.
type Correspondence struct {
	Local geo.Point
	World geo.LatLng
}

// GeoAlignment relates a local map frame to the geodetic frame via a planar
// projection around Origin.
type GeoAlignment struct {
	Origin geo.LatLng
	// LocalToPlane maps local-frame points onto the projection plane.
	LocalToPlane Similarity2
	proj         *geo.LocalProjection
}

// FitGeo fits a GeoAlignment from correspondences. The projection origin is
// the centroid of the world points.
func FitGeo(corrs []Correspondence) (*GeoAlignment, error) {
	if len(corrs) < 2 {
		return nil, ErrDegenerate
	}
	var latSum, lngSum float64
	for _, c := range corrs {
		latSum += c.World.Lat
		lngSum += c.World.Lng
	}
	origin := geo.LatLng{Lat: latSum / float64(len(corrs)), Lng: lngSum / float64(len(corrs))}
	proj := geo.NewLocalProjection(origin)
	src := make([]geo.Point, len(corrs))
	dst := make([]geo.Point, len(corrs))
	for i, c := range corrs {
		src[i] = c.Local
		dst[i] = proj.ToPoint(c.World)
	}
	m, err := Fit(src, dst)
	if err != nil {
		return nil, err
	}
	return &GeoAlignment{Origin: origin, LocalToPlane: m, proj: proj}, nil
}

// ToWorld maps a local-frame point to geodetic coordinates.
func (ga *GeoAlignment) ToWorld(p geo.Point) geo.LatLng {
	return ga.proj.ToLatLng(ga.LocalToPlane.Apply(p))
}

// ToLocal maps a geodetic position into the local frame.
func (ga *GeoAlignment) ToLocal(ll geo.LatLng) geo.Point {
	return ga.LocalToPlane.Inverse().Apply(ga.proj.ToPoint(ll))
}

// WorldRMSE returns the residual of the alignment in meters over the
// correspondences.
func (ga *GeoAlignment) WorldRMSE(corrs []Correspondence) float64 {
	if len(corrs) == 0 {
		return 0
	}
	var sum float64
	for _, c := range corrs {
		d := geo.DistanceMeters(ga.ToWorld(c.Local), c.World)
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(corrs)))
}
