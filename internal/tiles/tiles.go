// Package tiles implements the tile rendering service (§4): Web-Mercator
// tile addressing, a style-driven renderer that rasterizes one map's ways
// and POIs into 256×256 PNG tiles, a pre-rendered tile store (the
// centralized pipeline of Figure 1), and client-side compositing of tiles
// arriving from multiple federated servers (§5.2).
//
// A Renderer draws exactly the map it was built over, and a built map is
// never written in place, so a tile is a pure function of (map,
// coordinate) and a rendered tile never goes stale while its map lives. A
// map server renders each tile from one pinned store view's map and
// memoizes it in its generation-keyed query cache; Cache memoizes the
// tiles of one map that never changes.
package tiles

import (
	"bytes"
	"fmt"
	"image/color"
	"math"
	"sync"

	"openflame/internal/geo"
	"openflame/internal/osm"
	"openflame/internal/raster"
)

// Size is the tile edge length in pixels.
const Size = 256

// MaxZoom bounds tile addressing.
const MaxZoom = 22

// Coord addresses a Web-Mercator tile.
type Coord struct {
	Z int `json:"z"`
	X int `json:"x"`
	Y int `json:"y"`
}

// Valid reports whether c names a tile: 0 ≤ Z ≤ MaxZoom and 0 ≤ X, Y < 2^Z.
func (c Coord) Valid() bool {
	if c.Z < 0 || c.Z > MaxZoom {
		return false
	}
	n := 1 << uint(c.Z)
	return c.X >= 0 && c.X < n && c.Y >= 0 && c.Y < n
}

// String implements fmt.Stringer ("z/x/y").
func (c Coord) String() string { return fmt.Sprintf("%d/%d/%d", c.Z, c.X, c.Y) }

// FromLatLng returns the tile containing ll at zoom z.
func FromLatLng(ll geo.LatLng, z int) Coord {
	n := float64(int(1) << uint(z))
	x := int((ll.Lng + 180) / 360 * n)
	latRad := geo.DegToRad(ll.Lat)
	y := int((1 - math.Log(math.Tan(latRad)+1/math.Cos(latRad))/math.Pi) / 2 * n)
	max := int(n) - 1
	if x < 0 {
		x = 0
	}
	if x > max {
		x = max
	}
	if y < 0 {
		y = 0
	}
	if y > max {
		y = max
	}
	return Coord{Z: z, X: x, Y: y}
}

// Bounds returns the geodetic rectangle covered by the tile.
func (c Coord) Bounds() geo.Rect {
	n := float64(int(1) << uint(c.Z))
	lngMin := float64(c.X)/n*360 - 180
	lngMax := float64(c.X+1)/n*360 - 180
	latMax := tileLat(float64(c.Y), n)
	latMin := tileLat(float64(c.Y+1), n)
	return geo.Rect{MinLat: latMin, MinLng: lngMin, MaxLat: latMax, MaxLng: lngMax}
}

func tileLat(y, n float64) float64 {
	return geo.RadToDeg(math.Atan(math.Sinh(math.Pi * (1 - 2*y/n))))
}

// Covering returns the tiles at zoom z intersecting r.
func Covering(r geo.Rect, z int) []Coord {
	if r.IsEmpty() {
		return nil
	}
	tl := FromLatLng(geo.LatLng{Lat: r.MaxLat, Lng: r.MinLng}, z)
	br := FromLatLng(geo.LatLng{Lat: r.MinLat, Lng: r.MaxLng}, z)
	var out []Coord
	for x := tl.X; x <= br.X; x++ {
		for y := tl.Y; y <= br.Y; y++ {
			out = append(out, Coord{Z: z, X: x, Y: y})
		}
	}
	return out
}

// project maps ll to pixel coordinates within tile c.
func (c Coord) project(ll geo.LatLng) (float64, float64) {
	n := float64(int(1) << uint(c.Z))
	x := (ll.Lng + 180) / 360 * n
	latRad := geo.DegToRad(ll.Lat)
	y := (1 - math.Log(math.Tan(latRad)+1/math.Cos(latRad))/math.Pi) / 2 * n
	return (x - float64(c.X)) * Size, (y - float64(c.Y)) * Size
}

// Style selects drawing parameters per element.
type Style struct {
	Background color.RGBA
	Road       color.RGBA
	RoadMajor  color.RGBA
	Building   color.RGBA
	Indoor     color.RGBA
	POI        color.RGBA
}

// DefaultStyle returns a readable default palette.
func DefaultStyle() Style {
	return Style{
		Background: color.RGBA{240, 240, 235, 255},
		Road:       color.RGBA{160, 160, 160, 255},
		RoadMajor:  color.RGBA{255, 180, 60, 255},
		Building:   color.RGBA{200, 190, 180, 255},
		Indoor:     color.RGBA{170, 200, 230, 255},
		POI:        color.RGBA{200, 60, 60, 255},
	}
}

// Renderer rasterizes one map into tiles.
type Renderer struct {
	m     *osm.Map
	style Style
}

// NewRenderer creates a renderer for m.
func NewRenderer(m *osm.Map, style Style) *Renderer {
	return &Renderer{m: m, style: style}
}

// Render rasterizes the tile. Content outside the tile is clipped by the
// canvas bounds; geometry is drawn in layer order: buildings, indoor areas,
// roads, POIs.
func (r *Renderer) Render(c Coord) *raster.Canvas {
	m := r.m
	canvas := raster.NewCanvas(Size, Size, r.style.Background)
	// Skip work when the map is entirely outside the tile (padded so
	// strokes near the edge still appear).
	tb := c.Bounds().Expanded(0.001, 0.001)
	if !m.Bounds().Intersects(tb) {
		return canvas
	}
	type poly struct {
		xs, ys []float64
		col    color.RGBA
	}
	var fills []poly
	var lines []poly
	m.Ways(func(w *osm.Way) bool {
		nodes := m.WayNodes(w)
		if len(nodes) < 2 {
			return true
		}
		xs := make([]float64, len(nodes))
		ys := make([]float64, len(nodes))
		visible := false
		for i, n := range nodes {
			pos := m.NodePosition(n)
			xs[i], ys[i] = c.project(pos)
			if xs[i] >= -Size && xs[i] <= 2*Size && ys[i] >= -Size && ys[i] <= 2*Size {
				visible = true
			}
		}
		if !visible {
			return true
		}
		switch {
		case w.Tags.Has(osm.TagBuilding) && w.IsClosed():
			fills = append(fills, poly{xs, ys, r.style.Building})
		case w.Tags.Has(osm.TagIndoor) && w.IsClosed():
			fills = append(fills, poly{xs, ys, r.style.Indoor})
		case w.Tags.Has(osm.TagHighway):
			col := r.style.Road
			switch w.Tags.Get(osm.TagHighway) {
			case "motorway", "trunk", "primary":
				col = r.style.RoadMajor
			}
			lines = append(lines, poly{xs, ys, col})
		default:
			lines = append(lines, poly{xs, ys, r.style.Road})
		}
		return true
	})
	for _, p := range fills {
		canvas.FillPolygon(p.xs, p.ys, p.col)
	}
	for _, p := range lines {
		thickness := 2
		if c.Z >= 17 {
			thickness = 3
		}
		canvas.DrawPolyline(p.xs, p.ys, thickness, p.col)
	}
	// POIs: named or tagged point features.
	m.Nodes(func(n *osm.Node) bool {
		if n.Tags.Get(osm.TagName) == "" && !n.Tags.Has(osm.TagAmenity) &&
			!n.Tags.Has(osm.TagShop) && !n.Tags.Has(osm.TagProduct) {
			return true
		}
		x, y := c.project(m.NodePosition(n))
		if x < -4 || x > Size+4 || y < -4 || y > Size+4 {
			return true
		}
		canvas.FillCircle(x, y, 3, r.style.POI)
		return true
	})
	return canvas
}

// RenderPNG renders the tile and encodes it as PNG.
func (r *Renderer) RenderPNG(c Coord) ([]byte, error) {
	var buf bytes.Buffer
	if err := r.Render(c).EncodePNG(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Cache pre-renders and memoizes tiles — the "pre-rendered tiles" store of
// the centralized architecture (Figure 1). Its renderer's map never
// changes, so an entry never goes stale. Safe for concurrent use.
type Cache struct {
	r  *Renderer
	mu sync.Mutex
	m  map[Coord][]byte
	// Hits and Misses count cache effectiveness.
	Hits, Misses int64
}

// NewCache wraps a renderer with memoization.
func NewCache(r *Renderer) *Cache {
	return &Cache{r: r, m: make(map[Coord][]byte)}
}

// Get returns the PNG bytes for the tile, rendering on first use. A render
// error is returned, never memoized.
func (c *Cache) Get(coord Coord) ([]byte, error) {
	c.mu.Lock()
	if b, ok := c.m[coord]; ok {
		c.Hits++
		c.mu.Unlock()
		return b, nil
	}
	c.Misses++
	c.mu.Unlock()
	b, err := c.r.RenderPNG(coord)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.m[coord] = b
	c.mu.Unlock()
	return b, nil
}

// Prerender renders every tile covering r at the zoom range [zMin, zMax],
// returning the number of tiles rendered.
func (c *Cache) Prerender(r geo.Rect, zMin, zMax int) (int, error) {
	n := 0
	for z := zMin; z <= zMax; z++ {
		for _, coord := range Covering(r, z) {
			if _, err := c.Get(coord); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// Len returns the number of cached tiles.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stitch composites tiles for the same coordinate rendered by multiple map
// servers, in order (later layers on top), treating each layer's background
// as transparent. This is the client-side assembly of §5.2.
func Stitch(layers []*raster.Canvas, backgrounds []color.RGBA) *raster.Canvas {
	if len(layers) == 0 {
		return raster.NewCanvas(Size, Size, color.RGBA{0, 0, 0, 255})
	}
	out := raster.NewCanvas(layers[0].W, layers[0].H, backgrounds[0])
	raster.Composite(out, layers[0], color.RGBA{1, 2, 3, 4}) // copy all pixels
	for i := 1; i < len(layers); i++ {
		raster.Composite(out, layers[i], backgrounds[i])
	}
	return out
}
