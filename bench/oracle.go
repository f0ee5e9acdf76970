package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"openflame/internal/centralized"
	"openflame/internal/client"
	"openflame/internal/geo"
	"openflame/internal/wire"
)

// oracleSamples is how many seeded requests per service are compared with
// the centralized system before each window.
const oracleSamples = 200

// oracle answers the same questions from internal/centralized — one merged
// map, one index, one hierarchy — built over the same world.
type oracle struct {
	sys *centralized.System
}

func newOracle(fx *fixture) (*oracle, error) {
	sources := []centralized.Source{{Map: fx.world.Outdoor}}
	for _, sf := range fx.stores {
		sources = append(sources, centralized.Source{Map: sf.bundle.Map, Alignment: sf.ga})
	}
	sys, err := centralized.Build(sources, nil)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &oracle{sys: sys}, nil
}

// check compares one federated answer with the centralized one. The
// comparison is semantic: the federation may name a different node id or
// serve from a different replica, but not find a different place.
func (or *oracle) check(o op, got answer) error {
	if got.err != nil {
		return got.err
	}
	switch o.kind {
	case opSearch:
		pos := o.pos
		want := or.sys.Search(wire.SearchRequest{Query: o.query, Near: &pos, MaxDistanceMeters: 1000, Limit: 5})
		if len(want.Results) == 0 {
			return nil
		}
		if got.empty {
			return fmt.Errorf("empty, oracle has %q", want.Results[0].Key())
		}
		if k := want.Results[0].Key(); got.key != k {
			return fmt.Errorf("top hit %q, oracle %q", got.key, k)
		}
	case opGeocode:
		if o.wantAny != nil {
			best := math.Inf(1)
			for _, w := range o.wantAny {
				best = math.Min(best, geo.DistanceMeters(got.pos, w))
			}
			if best > 1 {
				return fmt.Errorf("%.1f m from the nearest such shelf", best)
			}
			return nil
		}
		want := or.sys.Geocode(wire.GeocodeRequest{Query: o.query, Limit: 1})
		if len(want.Results) == 0 {
			return nil
		}
		if d := geo.DistanceMeters(got.pos, want.Results[0].Position); d > 1 {
			return fmt.Errorf("%.1f m from oracle's %q", d, want.Results[0].Name)
		}
	case opRGeocode:
		want := or.sys.RGeocode(wire.RGeocodeRequest{Position: o.pos, MaxMeters: 250})
		if !want.Found {
			return nil
		}
		if got.empty {
			return fmt.Errorf("empty, oracle has %q", want.Result.Name)
		}
		if d := geo.DistanceMeters(got.pos, want.Result.Position); d > 1 {
			return fmt.Errorf("%.1f m from oracle's %q", d, want.Result.Name)
		}
	case opRoute:
		want := or.sys.Route(wire.RouteRequest{From: o.pos, To: o.to})
		if !want.Found {
			return nil
		}
		if got.empty {
			return fmt.Errorf("no route, oracle has %.0f m", want.LengthMeters)
		}
		if got.meters > 1.05*want.LengthMeters {
			return fmt.Errorf("stitched %.1f m, centralized optimum %.1f m", got.meters, want.LengthMeters)
		}
	case opLocalize:
		if got.empty {
			return fmt.Errorf("no fix")
		}
		if d := geo.DistanceMeters(got.pos, o.cue.world); d >= 5 {
			return fmt.Errorf("fix %.1f m from truth", d)
		}
	case opTile:
		if got.empty {
			return fmt.Errorf("not a PNG")
		}
	}
	return nil
}

// sample runs oracleSamples ops of every service in the workload's mix
// through the client and the oracle. It returns how many were checked and
// rejected, the first rejection, and a digest of the federated answers: two
// runs of one seed must print the same digest.
func (or *oracle) sample(ctx context.Context, c *client.Client, g generator, seed int64, n int) (checked, rejected int, first error, digest uint64) {
	r := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	var seen [numKinds]int
	// A mix's rarest service is 10 % of it, so 12n draws reach n of each
	// kind the mix has; draws beyond a kind's n are skipped.
	for draws := 0; draws < 12*n; draws++ {
		o := g(r)
		if seen[o.kind] >= n {
			continue
		}
		seen[o.kind]++
		checked++
		got := exec(ctx, c, o)
		err := or.check(o, got)
		if err == nil && o.kind == opTile {
			err = decodesAsPNG(ctx, c, o)
		}
		if err != nil {
			rejected++
			if first == nil {
				first = fmt.Errorf("%s: %w", o, err)
			}
		}
		fmt.Fprintf(h, "%s|%s|%.6f,%.6f|%.2f|%v\n", o, got.key, got.pos.Lat, got.pos.Lng, got.meters, got.empty)
	}
	return checked, rejected, first, h.Sum64()
}
