// Package worldgen deterministically synthesizes the world the experiments
// run on: an outdoor city map in the OSM data model (street grid, buildings,
// POIs with addresses) and indoor store/campus maps in their own local
// frames with aisles, shelf inventory, radio beacons, fiducial tags, and
// survey correspondences.
//
// This is the repository's substitution for public OSM extracts and real
// indoor cartography (the module is offline): the generator produces the
// same element types and the same sparse-outdoor/dense-indoor shape the
// paper's motivating example (§2) relies on — the outdoor map knows a store
// exists; only the store's own map knows its aisles and inventory.
package worldgen

import (
	"fmt"
	"math"
	"math/rand"

	"openflame/internal/align"
	"openflame/internal/geo"
	"openflame/internal/loc"
	"openflame/internal/osm"
)

// CityParams configures outdoor city generation.
type CityParams struct {
	Seed        int64
	Origin      geo.LatLng // southwest corner
	BlocksX     int        // east-west block count
	BlocksY     int        // north-south block count
	BlockMeters float64    // block edge length
	POIPerBlock int        // named POIs scattered per block
}

// DefaultCityParams returns a small downtown: 8x8 blocks of 100m.
func DefaultCityParams() CityParams {
	return CityParams{
		Seed:        1,
		Origin:      geo.LatLng{Lat: 40.4400, Lng: -79.9990},
		BlocksX:     8,
		BlocksY:     8,
		BlockMeters: 100,
		POIPerBlock: 2,
	}
}

var (
	poiAdjectives = []string{"Golden", "Blue", "Rusty", "Silver", "Green", "Grand", "Little", "Royal", "Happy", "Corner"}
	poiNouns      = []string{"Cafe", "Diner", "Books", "Bakery", "Pharmacy", "Theater", "Gallery", "Deli", "Market", "Salon"}
	poiKinds      = []string{"cafe", "restaurant", "library", "bakery", "pharmacy", "theatre", "gallery", "deli", "marketplace", "hairdresser"}
	productList   = []string{
		"roasted seaweed", "green tea", "instant ramen", "soy sauce", "jasmine rice",
		"kimchi", "rice vinegar", "sesame oil", "tofu", "miso paste",
		"oat milk", "dark chocolate", "espresso beans", "olive oil", "sourdough bread",
		"orange juice", "almond butter", "maple syrup", "frozen dumplings", "coconut water",
	}
)

// StreetName returns the name of the i-th east-west street.
func StreetName(i int) string { return fmt.Sprintf("%s Street", ordinal(i+1)) }

// AvenueName returns the name of the j-th north-south avenue.
func AvenueName(j int) string { return fmt.Sprintf("%c Avenue", 'A'+j%26) }

func ordinal(n int) string {
	suffix := "th"
	switch {
	case n%100 >= 11 && n%100 <= 13:
	case n%10 == 1:
		suffix = "st"
	case n%10 == 2:
		suffix = "nd"
	case n%10 == 3:
		suffix = "rd"
	}
	return fmt.Sprintf("%d%s", n, suffix)
}

// genCity starts the outdoor map: a street grid with named streets and
// avenues, intersection nodes, and tagged POIs with addresses. It returns
// the builder and the intersection nodes, indexed [y][x].
func genCity(p CityParams) (*osm.Builder, [][]osm.NodeID) {
	rng := rand.New(rand.NewSource(p.Seed))
	b := osm.NewBuilder("city", osm.Frame{Kind: osm.FrameGeodetic, Anchor: p.Origin})

	nodeAt := func(dxMeters, dyMeters float64) geo.LatLng {
		return geo.Offset(geo.Offset(p.Origin, dyMeters, 0), dxMeters, 90)
	}
	// Intersection nodes [y][x].
	grid := make([][]osm.NodeID, p.BlocksY+1)
	for y := 0; y <= p.BlocksY; y++ {
		grid[y] = make([]osm.NodeID, p.BlocksX+1)
		for x := 0; x <= p.BlocksX; x++ {
			pos := nodeAt(float64(x)*p.BlockMeters, float64(y)*p.BlockMeters)
			grid[y][x] = b.AddNode(&osm.Node{Pos: pos})
		}
	}
	// East-west streets.
	for y := 0; y <= p.BlocksY; y++ {
		ids := make([]osm.NodeID, 0, p.BlocksX+1)
		for x := 0; x <= p.BlocksX; x++ {
			ids = append(ids, grid[y][x])
		}
		if _, err := b.AddWay(&osm.Way{NodeIDs: ids, Tags: osm.Tags{
			osm.TagHighway: "residential", osm.TagName: StreetName(y)}}); err != nil {
			panic(err)
		}
	}
	// North-south avenues.
	for x := 0; x <= p.BlocksX; x++ {
		ids := make([]osm.NodeID, 0, p.BlocksY+1)
		for y := 0; y <= p.BlocksY; y++ {
			ids = append(ids, grid[y][x])
		}
		if _, err := b.AddWay(&osm.Way{NodeIDs: ids, Tags: osm.Tags{
			osm.TagHighway: "residential", osm.TagName: AvenueName(x)}}); err != nil {
			panic(err)
		}
	}
	// POIs inside blocks.
	for by := 0; by < p.BlocksY; by++ {
		for bx := 0; bx < p.BlocksX; bx++ {
			for k := 0; k < p.POIPerBlock; k++ {
				i := rng.Intn(len(poiAdjectives))
				j := rng.Intn(len(poiNouns))
				dx := (float64(bx) + 0.2 + 0.6*rng.Float64()) * p.BlockMeters
				dy := (float64(by) + 0.2 + 0.6*rng.Float64()) * p.BlockMeters
				num := 100*by + 2*bx + 1
				b.AddNode(&osm.Node{
					Pos: nodeAt(dx, dy),
					Tags: osm.Tags{
						osm.TagName:    fmt.Sprintf("%s %s", poiAdjectives[i], poiNouns[j]),
						osm.TagAmenity: poiKinds[j],
						osm.TagStreet:  StreetName(by),
						osm.TagNumber:  fmt.Sprintf("%d", num),
						osm.TagAddr:    fmt.Sprintf("%d %s", num, StreetName(by)),
						osm.TagCity:    "Flameville",
					},
				})
			}
		}
	}
	return b, grid
}

// StoreParams configures one indoor store map.
type StoreParams struct {
	Seed int64
	Name string
	// Entrance is the true world position of the entrance door.
	Entrance geo.LatLng
	// BearingDeg is the true orientation of the store's +Y (depth) axis,
	// degrees clockwise from north.
	BearingDeg float64
	// AnchorErrorMeters perturbs the map's coarse frame anchor, modelling
	// the indoor-alignment difficulty of §2.1 (0 = perfectly anchored).
	AnchorErrorMeters float64
	// AnchorErrorBearingDeg perturbs the frame bearing.
	AnchorErrorBearingDeg float64
	WidthMeters           float64 // X extent, centered on the entrance
	DepthMeters           float64 // Y extent, entrance at Y=0
	Aisles                int
	ProductsPerAisle      int
	// Floors stacks identical aisle layouts connected by a stairwell;
	// 0 or 1 means single-floor. Elements carry the OSM level tag.
	Floors int
}

// DefaultStoreParams returns a 40x25m grocery with 5 aisles.
func DefaultStoreParams(name string, entrance geo.LatLng) StoreParams {
	return StoreParams{
		Seed: 7, Name: name, Entrance: entrance, BearingDeg: 0,
		AnchorErrorMeters: 3, AnchorErrorBearingDeg: 4,
		WidthMeters: 40, DepthMeters: 25, Aisles: 5, ProductsPerAisle: 4,
	}
}

// IndoorBundle is a generated indoor map plus its sensing substrate and
// ground truth.
type IndoorBundle struct {
	Map       *osm.Map
	Beacons   []loc.Beacon
	Fiducials []loc.Fiducial
	Landmarks []loc.Landmark
	// PortalID links the entrance to the outdoor map.
	PortalID string
	// EntranceLocal is the entrance position in the local frame (0,0).
	EntranceLocal geo.Point
	// EntranceNode is the indoor node at the entrance.
	EntranceNode osm.NodeID
	// Correspondences are surveyed local↔world pairs (truth), from which
	// a precise alignment can be fitted.
	Correspondences []align.Correspondence
	// Products lists the stocked product names for test queries.
	Products []string
}

// TrueToWorld converts a local point to its true world position using the
// generation-time truth (not the map's possibly-erroneous anchor).
func trueToWorld(entrance geo.LatLng, bearingDeg float64, p geo.Point) geo.LatLng {
	d := p.Norm()
	if d == 0 {
		return entrance
	}
	brg := geo.RadToDeg(math.Atan2(p.X, p.Y)) + bearingDeg
	return geo.Offset(entrance, d, brg)
}

// GenStore generates an indoor grocery map in its own local frame: walls,
// a front corridor, aisles with shelf nodes carrying product inventory,
// an entrance portal, beacons, and fiducials.
func GenStore(p StoreParams) *IndoorBundle {
	rng := rand.New(rand.NewSource(p.Seed))
	portalID := fmt.Sprintf("portal-%s", sanitize(p.Name))

	anchor := p.Entrance
	if p.AnchorErrorMeters > 0 {
		anchor = geo.Offset(anchor, math.Abs(rng.NormFloat64())*p.AnchorErrorMeters, rng.Float64()*360)
	}
	b := osm.NewBuilder(p.Name, osm.Frame{
		Kind:             osm.FrameLocal,
		Anchor:           anchor,
		AnchorBearingDeg: p.BearingDeg + rng.NormFloat64()*p.AnchorErrorBearingDeg,
	})
	bundle := &IndoorBundle{PortalID: portalID}

	halfW := p.WidthMeters / 2
	// Walls (closed building ring).
	corners := []geo.Point{
		{X: -halfW, Y: 0}, {X: halfW, Y: 0},
		{X: halfW, Y: p.DepthMeters}, {X: -halfW, Y: p.DepthMeters},
	}
	var wallIDs []osm.NodeID
	for _, c := range corners {
		wallIDs = append(wallIDs, b.AddNode(&osm.Node{Local: c}))
	}
	wallIDs = append(wallIDs, wallIDs[0])
	if _, err := b.AddWay(&osm.Way{NodeIDs: wallIDs, Tags: osm.Tags{
		osm.TagBuilding: "retail", osm.TagName: p.Name, osm.TagIndoor: "yes"}}); err != nil {
		panic(err)
	}

	// Entrance node (portal) and front corridor at y=2.
	entrance := b.AddNode(&osm.Node{Local: geo.Point{X: 0, Y: 0}, Tags: osm.Tags{
		osm.TagName: p.Name + " Entrance", osm.TagPortalID: portalID, osm.TagIndoor: "yes",
		osm.TagLevel: "0"}})
	bundle.EntranceNode = entrance
	frontY := 2.0
	floors := p.Floors
	if floors < 1 {
		floors = 1
	}
	productIdx := 0
	// Stairwell: one landing node per floor near the left wall, offset a
	// little per floor so stair edges have non-zero length.
	var landings []osm.NodeID
	stairX := -halfW + 3
	for fl := 0; fl < floors; fl++ {
		level := fmt.Sprintf("%d", fl)
		frontLeft := b.AddNode(&osm.Node{Local: geo.Point{X: -halfW + 2, Y: frontY},
			Tags: osm.Tags{osm.TagLevel: level}})
		frontRight := b.AddNode(&osm.Node{Local: geo.Point{X: halfW - 2, Y: frontY},
			Tags: osm.Tags{osm.TagLevel: level}})
		entranceFront := b.AddNode(&osm.Node{Local: geo.Point{X: 0, Y: frontY},
			Tags: osm.Tags{osm.TagLevel: level}})
		if fl == 0 {
			if _, err := b.AddWay(&osm.Way{NodeIDs: []osm.NodeID{entrance, entranceFront},
				Tags: osm.Tags{osm.TagHighway: "corridor", osm.TagIndoor: "yes", osm.TagLevel: level}}); err != nil {
				panic(err)
			}
		}
		if _, err := b.AddWay(&osm.Way{NodeIDs: []osm.NodeID{frontLeft, entranceFront, frontRight},
			Tags: osm.Tags{osm.TagHighway: "corridor", osm.TagIndoor: "yes", osm.TagLevel: level,
				osm.TagName: fmt.Sprintf("Front Corridor L%d", fl)}}); err != nil {
			panic(err)
		}
		// Stair landing joins this floor's front corridor.
		landing := b.AddNode(&osm.Node{
			Local: geo.Point{X: stairX + float64(fl)*1.5, Y: frontY + 1.5},
			Tags:  osm.Tags{osm.TagLevel: level, osm.TagName: fmt.Sprintf("%s Stairs L%d", p.Name, fl)}})
		landings = append(landings, landing)
		if _, err := b.AddWay(&osm.Way{NodeIDs: []osm.NodeID{frontLeft, landing},
			Tags: osm.Tags{osm.TagHighway: "corridor", osm.TagIndoor: "yes", osm.TagLevel: level}}); err != nil {
			panic(err)
		}

		// Aisles: vertical corridors from the front corridor to the back.
		for a := 0; a < p.Aisles; a++ {
			frac := (float64(a) + 0.5) / float64(p.Aisles)
			x := -halfW + 2 + frac*(p.WidthMeters-4)
			bottom := b.AddNode(&osm.Node{Local: geo.Point{X: x, Y: frontY},
				Tags: osm.Tags{osm.TagLevel: level}})
			top := b.AddNode(&osm.Node{Local: geo.Point{X: x, Y: p.DepthMeters - 2},
				Tags: osm.Tags{osm.TagLevel: level}})
			aisleName := fmt.Sprintf("Aisle %d", fl*p.Aisles+a+1)
			if _, err := b.AddWay(&osm.Way{NodeIDs: []osm.NodeID{bottom, top}, Tags: osm.Tags{
				osm.TagHighway: "aisle", osm.TagIndoor: "yes", osm.TagName: aisleName,
				osm.TagLevel: level}}); err != nil {
				panic(err)
			}
			// Join the aisle bottom into the front corridor.
			if _, err := b.AddWay(&osm.Way{NodeIDs: []osm.NodeID{entranceFront, bottom},
				Tags: osm.Tags{osm.TagHighway: "corridor", osm.TagIndoor: "yes", osm.TagLevel: level}}); err != nil {
				panic(err)
			}
			// Shelves along the aisle.
			for s := 0; s < p.ProductsPerAisle; s++ {
				product := productList[productIdx%len(productList)]
				productIdx++
				yFrac := (float64(s) + 0.5) / float64(p.ProductsPerAisle)
				y := frontY + yFrac*(p.DepthMeters-4)
				shelfName := fmt.Sprintf("%s shelf", product)
				b.AddNode(&osm.Node{Local: geo.Point{X: x + 0.8, Y: y}, Tags: osm.Tags{
					osm.TagName: shelfName, osm.TagProduct: product,
					osm.TagIndoor: "yes", osm.TagLevel: level,
				}})
				bundle.Products = append(bundle.Products, product)
			}
		}
	}
	// Stairs connect consecutive landings.
	for fl := 1; fl < floors; fl++ {
		if _, err := b.AddWay(&osm.Way{NodeIDs: []osm.NodeID{landings[fl-1], landings[fl]},
			Tags: osm.Tags{osm.TagHighway: "steps", osm.TagIndoor: "yes",
				osm.TagName: fmt.Sprintf("Stairs %d-%d", fl-1, fl)}}); err != nil {
			panic(err)
		}
	}
	// Shelves are POIs, not graph nodes; routing targets the nearest aisle
	// node, so no shelf ways are needed.

	// Beacons: four corners (inset) plus center.
	inset := 1.5
	bundle.Beacons = []loc.Beacon{
		{ID: portalID + "-b0", Pos: geo.Point{X: -halfW + inset, Y: inset}},
		{ID: portalID + "-b1", Pos: geo.Point{X: halfW - inset, Y: inset}},
		{ID: portalID + "-b2", Pos: geo.Point{X: halfW - inset, Y: p.DepthMeters - inset}},
		{ID: portalID + "-b3", Pos: geo.Point{X: -halfW + inset, Y: p.DepthMeters - inset}},
		{ID: portalID + "-b4", Pos: geo.Point{X: 0, Y: p.DepthMeters / 2}},
	}
	// Fiducials: entrance and the back of each aisle. Landmarks (visual
	// signage) at the entrance, corners, and aisle ends.
	bundle.Fiducials = []loc.Fiducial{{ID: portalID + "-qr-entrance", Pos: geo.Point{X: 0, Y: 0.5}}}
	bundle.Landmarks = []loc.Landmark{
		{ID: portalID + "-sign-entrance", Pos: geo.Point{X: 0, Y: 0.5}},
		{ID: portalID + "-sign-nw", Pos: geo.Point{X: -halfW + 1, Y: p.DepthMeters - 1}},
		{ID: portalID + "-sign-ne", Pos: geo.Point{X: halfW - 1, Y: p.DepthMeters - 1}},
	}
	for a := 0; a < p.Aisles; a++ {
		frac := (float64(a) + 0.5) / float64(p.Aisles)
		x := -halfW + 2 + frac*(p.WidthMeters-4)
		bundle.Fiducials = append(bundle.Fiducials, loc.Fiducial{
			ID:  fmt.Sprintf("%s-qr-aisle%d", portalID, a+1),
			Pos: geo.Point{X: x, Y: p.DepthMeters - 2.5},
		})
		bundle.Landmarks = append(bundle.Landmarks, loc.Landmark{
			ID:  fmt.Sprintf("%s-sign-aisle%d", portalID, a+1),
			Pos: geo.Point{X: x, Y: frontY},
		})
	}
	// Survey correspondences: the four wall corners and the entrance.
	for _, c := range corners {
		bundle.Correspondences = append(bundle.Correspondences, align.Correspondence{
			Local: c, World: trueToWorld(p.Entrance, p.BearingDeg, c),
		})
	}
	bundle.Correspondences = append(bundle.Correspondences, align.Correspondence{
		Local: geo.Point{X: 0, Y: 0}, World: p.Entrance,
	})
	bundle.Map = b.Build()
	return bundle
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		case r == ' ' || r == '-' || r == '_':
			out = append(out, '-')
		}
	}
	return string(out)
}

// WorldParams configures an integrated world: a city plus stores placed on
// street corners, with outdoor portal nodes and footways connecting them.
type WorldParams struct {
	City      CityParams
	NumStores int
	StoreSeed int64
}

// DefaultWorldParams returns an 8x8-block city with 3 stores.
func DefaultWorldParams() WorldParams {
	return WorldParams{City: DefaultCityParams(), NumStores: 3, StoreSeed: 11}
}

// World is the complete generated environment.
type World struct {
	Outdoor *osm.Map
	Stores  []*IndoorBundle
	// OutdoorPortals maps portal IDs to the outdoor node carrying them.
	OutdoorPortals map[string]osm.NodeID
}

// storeNames label generated stores.
var storeNames = []string{
	"Corner Grocery", "Flameville Market", "Midtown Foods",
	"Eastside Pantry", "Union Grocers", "Harbor Market",
}

// GenWorld generates the outdoor city, places stores at distinct street
// corners, and links each store's entrance portal to the street network via
// an outdoor footway.
func GenWorld(p WorldParams) *World {
	city, grid := genCity(p.City)
	w := &World{OutdoorPortals: make(map[string]osm.NodeID)}
	rng := rand.New(rand.NewSource(p.StoreSeed))
	used := make(map[[2]int]bool)
	for i := 0; i < p.NumStores; i++ {
		name := storeNames[i%len(storeNames)]
		if i >= len(storeNames) {
			name = fmt.Sprintf("%s %d", name, i/len(storeNames)+1)
		}
		// Pick a distinct interior corner (bx, by).
		var bx, by int
		for {
			bx = 1 + rng.Intn(maxInt(p.City.BlocksX-1, 1))
			by = 1 + rng.Intn(maxInt(p.City.BlocksY-1, 1))
			if !used[[2]int{bx, by}] {
				used[[2]int{bx, by}] = true
				break
			}
		}
		// The entrance sits 15m north and 25m east of the corner so the
		// store footprint (40m wide, 25m deep, extending north) stays
		// inside the block and off the streets.
		corner := geo.Offset(geo.Offset(p.City.Origin, float64(by)*p.City.BlockMeters, 0),
			float64(bx)*p.City.BlockMeters, 90)
		entrance := geo.Offset(geo.Offset(corner, 15, 0), 25, 90)
		sp := DefaultStoreParams(name, entrance)
		sp.Seed = p.StoreSeed + int64(i)
		// A small bearing offset keeps the heterogeneity realistic without
		// crossing the surrounding streets.
		sp.BearingDeg = float64(rng.Intn(21)) - 10
		bundle := GenStore(sp)
		w.Stores = append(w.Stores, bundle)

		// Outdoor presence: a POI node at the entrance (sparse knowledge),
		// tagged with the shared portal ID, plus a footway to the grid
		// intersection nearest the corner: the corner itself, or the
		// origin's lone node in a city with no blocks.
		portalNode := city.AddNode(&osm.Node{Pos: entrance, Tags: osm.Tags{
			osm.TagName: name, osm.TagShop: "grocery",
			osm.TagPortalID: bundle.PortalID,
			osm.TagAddr:     fmt.Sprintf("%d %s", 100*by+bx, StreetName(by)),
		}})
		w.OutdoorPortals[bundle.PortalID] = portalNode
		if _, err := city.AddWay(&osm.Way{NodeIDs: []osm.NodeID{grid[min(by, p.City.BlocksY)][min(bx, p.City.BlocksX)], portalNode},
			Tags: osm.Tags{osm.TagHighway: "footway"}}); err != nil {
			panic(err)
		}
	}
	w.Outdoor = city.Build()
	return w
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Products returns the full product list available to generators, for tests
// that want a guaranteed-stocked query.
func Products() []string { return append([]string(nil), productList...) }
