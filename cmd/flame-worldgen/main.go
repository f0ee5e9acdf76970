// Command flame-worldgen emits a synthetic world — an outdoor city map and
// indoor store maps — as OSM XML files, for feeding flame-server instances
// or offline inspection. With -import it instead streams a real OSM XML
// extract (optionally clipped to -bbox) into a binary v2 snapshot that
// flame-server loads directly.
//
// Usage:
//
//	flame-worldgen -out ./world -stores 3 -blocks 8 -seed 1
//	flame-worldgen -out ./world -import city-extract.osm -bbox "40.42,-80.02,40.46,-79.92"
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"openflame/internal/fanout"
	"openflame/internal/geo"
	"openflame/internal/osm"
	"openflame/internal/store"
	"openflame/internal/worldgen"
)

// options is the CLI surface, separated from main so tests can run the
// generator end to end.
type options struct {
	out        string
	stores     int
	blocks     int
	seed       int64
	importPath string
	bbox       string
	name       string
}

func newFlagSet(name string) (*flag.FlagSet, *options) {
	o := &options{}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.StringVar(&o.out, "out", "world", "output directory")
	fs.IntVar(&o.stores, "stores", 3, "number of indoor store maps")
	fs.IntVar(&o.blocks, "blocks", 8, "city grid size (blocks per side)")
	fs.Int64Var(&o.seed, "seed", 1, "generation seed")
	fs.StringVar(&o.importPath, "import", "", "stream a real OSM XML extract into <out>/imported.snap instead of generating a world")
	fs.StringVar(&o.bbox, "bbox", "", "clip an -import to \"minLat,minLng,maxLat,maxLng\" (ways crossing the edge keep their boundary nodes)")
	fs.StringVar(&o.name, "name", "", "map name for -import (default: extract file base name)")
	return fs, o
}

// parseBBox parses "minLat,minLng,maxLat,maxLng".
func parseBBox(s string) (geo.Rect, error) {
	if s == "" {
		return geo.Rect{}, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return geo.Rect{}, fmt.Errorf("bbox %q: want minLat,minLng,maxLat,maxLng", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return geo.Rect{}, fmt.Errorf("bbox %q: %w", s, err)
		}
		v[i] = f
	}
	r := geo.Rect{MinLat: v[0], MinLng: v[1], MaxLat: v[2], MaxLng: v[3]}
	if r.IsEmpty() {
		return geo.Rect{}, fmt.Errorf("bbox %q is empty", s)
	}
	return r, nil
}

// printStorageReport summarizes how a map is stored: the columnar
// footprint the memory-lean layout achieves, and the interning that
// achieves it.
func printStorageReport(label string, m *osm.Map) osm.StorageStats {
	st := m.StorageStats()
	fmt.Printf("%-28s nodes=%-8d ways=%-6d bytes/node=%-7.1f interned=%-6d tag-pairs=%d\n",
		label, st.Nodes, st.Ways, st.BytesPerNode, st.InternedStrings, st.TagPairs)
	return st
}

// runImport streams the extract into a columnar map and writes it as a v2
// snapshot the server can mmap.
func (o *options) runImport() (*osm.Map, *osm.ImportStats, error) {
	bbox, err := parseBBox(o.bbox)
	if err != nil {
		return nil, nil, err
	}
	name := o.name
	if name == "" {
		name = strings.TrimSuffix(strings.TrimSuffix(filepath.Base(o.importPath), ".xml"), ".osm")
	}
	f, err := os.Open(o.importPath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	m, stats, err := osm.ImportExtract(bufio.NewReaderSize(f, 1<<20), osm.ImportOptions{Name: name, BBox: bbox})
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, nil, fmt.Errorf("mkdir: %w", err)
	}
	path := filepath.Join(o.out, "imported.snap")
	out, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	// Build the serving indexes now and persist them in the snapshot, so
	// the server that mmaps this file attaches them instead of paying the
	// full store.New rebuild on every boot.
	if err := m.WriteSnapshotVersionsIndexed(out, nil, store.New(m).PersistedIndex()); err != nil {
		out.Close()
		return nil, nil, fmt.Errorf("write %s: %w", path, err)
	}
	if err := out.Close(); err != nil {
		return nil, nil, err
	}
	fmt.Printf("imported %s: read %d nodes / %d ways, kept %d / %d (%d edge nodes, %d dropped refs)\n",
		o.importPath, stats.NodesRead, stats.WaysRead, stats.NodesKept, stats.WaysKept,
		stats.EdgeNodes, stats.DroppedRefs)
	fmt.Printf("wrote %s\n", path)
	printStorageReport(name, m)
	return m, stats, nil
}

// run generates the world and writes every map; returns the generated
// world for inspection.
func (o *options) run() (*worldgen.World, error) {
	params := worldgen.DefaultWorldParams()
	params.City.Seed = o.seed
	params.City.BlocksX = o.blocks
	params.City.BlocksY = o.blocks
	params.NumStores = o.stores
	params.StoreSeed = o.seed + 10
	if err := params.Validate(); err != nil {
		return nil, err
	}

	w := worldgen.GenWorld(params)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, fmt.Errorf("mkdir: %w", err)
	}
	var printMu sync.Mutex
	write := func(name string, m *osm.Map) error {
		path := filepath.Join(o.out, name)
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create %s: %v", path, err)
		}
		defer f.Close()
		if err := m.WriteXML(f); err != nil {
			return fmt.Errorf("write %s: %v", path, err)
		}
		printMu.Lock()
		fmt.Printf("wrote %-28s nodes=%-5d ways=%-4d\n", path, m.NodeCount(), m.WayCount())
		printMu.Unlock()
		return nil
	}
	// The maps are independent: serialize them on the bounded pool.
	errs := make([]error, len(w.Stores)+1)
	fanout.ForEach(context.Background(), len(w.Stores)+1, 0, func(_ context.Context, i int) {
		if i == 0 {
			errs[0] = write("city.osm.xml", w.Outdoor)
			return
		}
		errs[i] = write(fmt.Sprintf("store-%d.osm.xml", i-1), w.Stores[i-1].Map)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	printStorageReport("city", w.Outdoor)
	for _, s := range w.Stores {
		printStorageReport(s.Map.Name, s.Map)
	}
	return w, nil
}

func main() {
	fs, o := newFlagSet("flame-worldgen")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if o.importPath != "" {
		if _, _, err := o.runImport(); err != nil {
			log.Fatal(err)
		}
		return
	}
	w, err := o.run()
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range w.Stores {
		fmt.Printf("  %s: %d products, %d beacons, portal %s\n",
			s.Map.Name, len(s.Products), len(s.Beacons), s.PortalID)
	}
}
