package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"image/png"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"openflame/internal/client"
	"openflame/internal/geo"
	"openflame/internal/geocode"
	"openflame/internal/loc"
	"openflame/internal/osm"
	"openflame/internal/store"
	"openflame/internal/tiles"
	"openflame/internal/worldgen"
)

// opDeadline is the longest an op may take before it counts as failed.
const opDeadline = time.Second

type opKind uint8

const (
	opSearch opKind = iota
	opGeocode
	opRGeocode
	opRoute
	opLocalize
	opTile
	numKinds
)

var kindNames = [numKinds]string{"search", "geocode", "rgeocode", "route", "localize", "tile"}

func (k opKind) String() string { return kindNames[k] }

// op is one generated client call. Which fields are set depends on kind.
type op struct {
	kind  opKind
	query string     // search terms, or the address to geocode
	pos   geo.LatLng // search centre, rgeocode point, route origin, coarse fix
	to    geo.LatLng // route destination
	tile  tiles.Coord
	cue   *locCue // localize
	// wantAny, when set, lists the positions that are right by
	// construction; the oracle prefers it to asking the centralized system.
	wantAny []geo.LatLng
}

// locCue is a precomputed RSSI observation with its ground truth.
type locCue struct {
	cue   loc.Cue
	store int
	truth geo.Point  // local frame
	world geo.LatLng // truth through the store's surveyed alignment
}

func (o op) String() string {
	switch o.kind {
	case opRoute:
		return fmt.Sprintf("route %.6f,%.6f>%.6f,%.6f", o.pos.Lat, o.pos.Lng, o.to.Lat, o.to.Lng)
	case opTile:
		return "tile " + o.tile.String()
	case opLocalize:
		return fmt.Sprintf("localize %d@%.3f,%.3f", o.cue.store, o.cue.truth.X, o.cue.truth.Y)
	case opGeocode:
		return "geocode " + o.query
	}
	return fmt.Sprintf("%s %q@%.6f,%.6f", o.kind, o.query, o.pos.Lat, o.pos.Lng)
}

// --- tables ---------------------------------------------------------------

type poi struct{ name, addr string }

type storeTable struct {
	name     string // the map's display name, as addresses spell it
	entrance geo.LatLng
	products []string
	shelves  []osm.NodeID // shelves[i] stocks products[i]
	// coarseOK: the world map's geocoder resolves the store's name to its
	// door ("Flameville Market" loses to a market in the city of
	// Flameville).
	coarseOK bool
	cues     []*locCue
}

// tables is everything the generators draw from, extracted once from the
// fixture so that drawing an op is a few table lookups.
type tables struct {
	origin geo.LatLng
	extent float64 // city edge, meters
	pois   []poi
	stores []storeTable
	// shelvesOf lists, per product, the world position of every shelf in
	// any store that stocks it.
	shelvesOf map[string][]geo.LatLng
}

// cuesPerStore sizes the precomputed RSSI pool: cue synthesis draws five
// Gaussians and builds a map, which is request construction the closed
// loop must not pay inside the window.
const cuesPerStore = 64

func newTables(fx *fixture) (*tables, error) {
	tb := &tables{
		origin: fx.city.Origin, extent: float64(fx.spec.blocks) * fx.city.BlockMeters,
		shelvesOf: make(map[string][]geo.LatLng),
	}
	fx.world.Outdoor.Nodes(func(n *osm.Node) bool {
		if n.Tags.Get(osm.TagAmenity) != "" && n.Tags.Get(osm.TagAddr) != "" {
			tb.pois = append(tb.pois, poi{name: n.Tags.Get(osm.TagName), addr: n.Tags.Get(osm.TagAddr)})
		}
		return true
	})
	sort.Slice(tb.pois, func(i, j int) bool {
		a, b := tb.pois[i], tb.pois[j]
		if a.addr != b.addr {
			return a.addr < b.addr
		}
		return a.name < b.name
	})
	// The cue pool has its own fixed seed: it is part of the world, like
	// the beacons, and every -seed draws indices into the same pool.
	rng := rand.New(rand.NewSource(97))
	model := loc.DefaultRadioModel()
	world := geocode.New(store.New(fx.world.Outdoor))
	// GenWorld builds every store from the default parameters; only the
	// floor plan's extent matters here.
	extent := worldgen.DefaultStoreParams("", geo.LatLng{})
	for i, sf := range fx.stores {
		st := storeTable{name: sf.bundle.Map.Name, entrance: sf.entrance}
		if hit := world.Forward(st.name, 1); len(hit) == 1 {
			st.coarseOK = geo.DistanceMeters(hit[0].Position, sf.entrance) < 1
		}
		sf.bundle.Map.Nodes(func(n *osm.Node) bool {
			if p := n.Tags.Get(osm.TagProduct); p != "" {
				st.products = append(st.products, p)
				st.shelves = append(st.shelves, n.ID)
				tb.shelvesOf[p] = append(tb.shelvesOf[p], sf.ga.ToWorld(n.Local))
			}
			return true
		})
		// RSSI shadowing now and then puts a fix 6-7 m out. The pool keeps
		// only cues a reference radio map places within 4 m, so that a fix
		// 5 m out in a run means the federation chose or computed wrongly.
		ref, err := loc.BuildFingerprintDB(sf.bundle.Beacons,
			geo.Point{X: -extent.WidthMeters / 2}, geo.Point{X: extent.WidthMeters / 2, Y: extent.DepthMeters}, 2, model)
		if err != nil {
			return nil, fmt.Errorf("reference radio map for %s: %w", st.name, err)
		}
		for len(st.cues) < cuesPerStore {
			truth := geo.Point{
				X: (rng.Float64() - 0.5) * (extent.WidthMeters - 6),
				Y: 3 + rng.Float64()*(extent.DepthMeters-6),
			}
			cue := loc.SynthesizeRSSICue(truth, sf.bundle.Beacons, model, rng)
			if fix, ok := ref.Localize(cue); !ok || fix.Local.Dist(truth) >= 4 {
				continue
			}
			st.cues = append(st.cues, &locCue{cue: cue, store: i, truth: truth, world: sf.ga.ToWorld(truth)})
		}
		tb.stores = append(tb.stores, st)
	}
	return tb, nil
}

// at returns the world position dx meters east and dy meters north of the
// city's south-west corner.
func (tb *tables) at(dx, dy float64) geo.LatLng {
	return geo.Offset(geo.Offset(tb.origin, dy, 0), dx, 90)
}

// storeClearance keeps the city workloads' positions away from the stores.
// A store's registration cells reach well past its walls, and the client
// anchors a route endpoint on the smallest map announced there: a street
// corner 150 m from a store is routed to the store's nearest aisle. Inside
// a store, "nearest" is decided in the store's own frame, metres off its
// surveyed alignment. Both are the federation's rules, not errors, but
// neither is the centralized answer the oracle holds the city ops to. The
// searches still fan out to the stores: the 1 km cap reaches them.
const storeClearance = 300.0

func (tb *tables) clearOfStores(p geo.LatLng) bool {
	for i := range tb.stores {
		if geo.DistanceMeters(p, tb.stores[i].entrance) < storeClearance {
			return false
		}
	}
	return true
}

// --- generators -----------------------------------------------------------

// generator draws the next op of a workload's mix. It must be cheap: the
// time spent inside it is the benchmark's own and is checked against 5 % of
// the window.
type generator func(r *rand.Rand) op

// pick returns the index of the weight bucket a uniform draw lands in.
func pick(r *rand.Rand, weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	n := r.Intn(total)
	for i, w := range weights {
		if n < w {
			return i
		}
		n -= w
	}
	return len(weights) - 1
}

// cityTerms are query words every neighbourhood of the generated city
// answers: the POI nouns and adjectives worldgen names places with, less
// the ones a store also answers to ("market", "corner", "green" tea). A
// store holds its nodes in a frame a few metres off its surveyed alignment,
// so which of two near-equal hits is nearest can differ between the store's
// own index and the centralized merge.
var cityTerms = []string{
	"cafe", "bakery", "books", "pharmacy", "deli", "gallery", "diner", "theater",
	"salon", "golden", "blue", "silver", "grand", "little", "royal", "happy", "rusty",
}

func (p poi) address() string { return p.name + ", " + p.addr }

// cityHot draws from a working set small enough to live in every cache:
// 16 lattice positions, 8 terms, 16 addresses, 16 tiles.
func cityHot(tb *tables) generator {
	var lattice []geo.LatLng
	var tile []tiles.Coord
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			// Off the intersections, so snapping has work to do.
			dx, dy := (float64(i)+0.5)*tb.extent/4+13, (float64(j)+0.5)*tb.extent/4+29
			p := tb.at(dx, dy)
			for try := 0; try < 8 && !tb.clearOfStores(p); try++ {
				dx = math.Mod(dx+storeClearance/2, tb.extent)
				p = tb.at(dx, dy)
			}
			lattice = append(lattice, p)
			tile = append(tile, tiles.FromLatLng(p, 17))
		}
	}
	var addrs []string
	for i := 0; i < 16; i++ {
		addrs = append(addrs, tb.pois[i*len(tb.pois)/16].address())
	}
	terms := cityTerms[:8]
	weights := []int{35, 20, 10, 25, 10}
	kinds := []opKind{opSearch, opGeocode, opRGeocode, opRoute, opTile}
	return func(r *rand.Rand) op {
		switch k := kinds[pick(r, weights)]; k {
		case opSearch:
			return op{kind: k, query: terms[r.Intn(len(terms))], pos: lattice[r.Intn(16)]}
		case opGeocode:
			return op{kind: k, query: addrs[r.Intn(16)]}
		case opRGeocode:
			return op{kind: k, pos: lattice[r.Intn(16)]}
		case opRoute:
			a := r.Intn(16)
			b := (a + 1 + r.Intn(15)) % 16
			return op{kind: k, pos: lattice[a], to: lattice[b]}
		default:
			return op{kind: opTile, tile: tile[r.Intn(16)]}
		}
	}
}

// cityCold draws from a request space no cache holds: continuous positions
// over the whole city, every address, routes half the city long.
func cityCold(tb *tables) generator {
	weights := []int{40, 20, 10, 30}
	kinds := []opKind{opSearch, opGeocode, opRGeocode, opRoute}
	// Keep a block's margin so a 1 km search cap and a 250 m snap always
	// have map under them.
	margin := 100.0
	span := tb.extent - 2*margin
	point := func(r *rand.Rand) geo.LatLng {
		for {
			if p := tb.at(margin+r.Float64()*span, margin+r.Float64()*span); tb.clearOfStores(p) {
				return p
			}
		}
	}
	return func(r *rand.Rand) op {
		switch k := kinds[pick(r, weights)]; k {
		case opSearch:
			return op{kind: k, query: cityTerms[r.Intn(len(cityTerms))], pos: point(r)}
		case opGeocode:
			return op{kind: k, query: tb.pois[r.Intn(len(tb.pois))].address()}
		case opRGeocode:
			return op{kind: k, pos: point(r)}
		default:
			return op{kind: opRoute, pos: point(r), to: point(r)}
		}
	}
}

// fedFanout addresses one of the mall's stores per op; every op discovers
// and fans out over the overlapping servers around it.
func fedFanout(tb *tables) generator {
	weights := []int{30, 20, 20, 30}
	kinds := []opKind{opSearch, opGeocode, opLocalize, opRoute}
	// The geocoder ranks by the share of address tokens a node matches and
	// the client keeps the first best answer in plan order, world map first.
	// "<product> shelf, <store>" therefore finds a shelf only when the
	// product part outweighs the store part: two-word products, and stores
	// whose name has no numeral suffix. Which store's shelf it finds, where
	// coverage overlaps, is plan order; the oracle accepts any of them.
	var geocodable []int
	for i, st := range tb.stores {
		if st.coarseOK && len(strings.Fields(st.name)) == 2 {
			geocodable = append(geocodable, i)
		}
	}
	var twoWord []string
	for _, p := range worldgen.Products() {
		if len(strings.Fields(p)) == 2 {
			twoWord = append(twoWord, p)
		}
	}
	return func(r *rand.Rand) op {
		si := r.Intn(len(tb.stores))
		st := &tb.stores[si]
		switch k := kinds[pick(r, weights)]; k {
		case opSearch:
			return op{kind: k, query: st.products[r.Intn(len(st.products))], pos: st.entrance}
		case opGeocode:
			st = &tb.stores[geocodable[r.Intn(len(geocodable))]]
			p := twoWord[r.Intn(len(twoWord))]
			return op{kind: k, query: p + " shelf, " + st.name, wantAny: tb.shelvesOf[p]}
		case opLocalize:
			c := st.cues[r.Intn(len(st.cues))]
			return op{kind: k, pos: c.world, cue: c}
		default:
			other := (si + 1 + r.Intn(len(tb.stores)-1)) % len(tb.stores)
			return op{kind: opRoute, pos: st.entrance, to: tb.stores[other].entrance}
		}
	}
}

// churnReader is churn_watch's one closed-loop reader: product searches and
// store-to-store routes while the writer invalidates under it.
func churnReader(tb *tables) generator {
	return func(r *rand.Rand) op {
		si := r.Intn(len(tb.stores))
		st := &tb.stores[si]
		if r.Intn(100) < 70 {
			return op{kind: opSearch, query: st.products[r.Intn(len(st.products))], pos: st.entrance}
		}
		other := (si + 1 + r.Intn(len(tb.stores)-1)) % len(tb.stores)
		return op{kind: opRoute, pos: st.entrance, to: tb.stores[other].entrance}
	}
}

// workload is one named traffic mix over one world.
type workload struct {
	name    string
	world   worldSpec
	callers int
	gen     func(*tables) generator
	// churn adds the open-loop writer, the sync schedule and the two watch
	// streams; the reader then carries a session.
	churn bool
}

var workloads = []workload{
	{name: "city_hot", world: city48, callers: 2, gen: cityHot},
	{name: "city_cold", world: city48, callers: 2, gen: cityCold},
	{name: "fed_fanout", world: mall12, callers: 2, gen: fedFanout},
	{name: "churn_watch", world: mall12, callers: 1, gen: churnReader, churn: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// streamHash hashes the first n ops a seed generates: two runs of one seed
// must ask the program the same questions.
func streamHash(g generator, seed int64, n int) uint64 {
	r := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		fmt.Fprintln(h, g(r).String())
	}
	return h.Sum64()
}

// --- execution ------------------------------------------------------------

// answer is what an op returned, reduced to what the oracle compares.
type answer struct {
	key    string     // search: top hit's Key()
	pos    geo.LatLng // geocode, rgeocode, localize: the position found
	meters float64    // route: stitched length; tile: PNG size, so the digest sees it
	cost   float64    // route: stitched cost, seconds
	empty  bool
	err    error
}

func (a answer) ok() bool { return a.err == nil && !a.empty }

// exec runs one op through the client's v2 API under the op deadline.
func exec(ctx context.Context, c *client.Client, o op, opts ...client.CallOption) answer {
	ctx, cancel := context.WithTimeout(ctx, opDeadline)
	defer cancel()
	var a answer
	switch o.kind {
	case opSearch:
		res := c.SearchV2(ctx, o.query, o.pos, 5, opts...)
		if a.empty = len(res) == 0; !a.empty {
			a.key = res[0].Key()
		}
	case opGeocode:
		res, err := c.GeocodeV2(ctx, o.query, opts...)
		a.err, a.pos = err, res.Position
	case opRGeocode:
		res, ok := c.ReverseGeocodeV2(ctx, o.pos, 250, opts...)
		a.empty, a.pos = !ok, res.Position
	case opRoute:
		res, err := c.RouteV2(ctx, o.pos, o.to, opts...)
		a.err, a.meters, a.cost = err, res.LengthMeters, res.CostSeconds
		a.empty = err == nil && len(res.Legs) == 0
	case opLocalize:
		fix, ok := c.LocalizeV2(ctx, o.pos, []loc.Cue{o.cue.cue}, o.pos, 10, opts...)
		a.empty, a.pos = !ok, fix.World
	case opTile:
		b, err := c.TilePNGV2(ctx, c.WorldURL, o.tile.Z, o.tile.X, o.tile.Y, opts...)
		if a.err = err; err == nil {
			// The signature is enough inside the window; the oracle
			// sample decodes the image.
			a.empty = !bytes.HasPrefix(b, []byte("\x89PNG\r\n\x1a\n"))
			a.meters = float64(len(b))
		}
	}
	if a.err == nil && ctx.Err() != nil {
		// The client is first-error-tolerant: a deadline can surface as
		// an empty merge instead of an error.
		a.err = ctx.Err()
	}
	return a
}

// decodesAsPNG fetches the op's tile again and decodes it.
func decodesAsPNG(ctx context.Context, c *client.Client, o op) error {
	b, err := c.TilePNGV2(ctx, c.WorldURL, o.tile.Z, o.tile.X, o.tile.Y)
	if err != nil {
		return err
	}
	_, err = png.Decode(bytes.NewReader(b))
	return err
}
