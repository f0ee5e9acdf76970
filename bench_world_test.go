// E20: memory-lean world storage — the columnar node layout measured
// against what it replaced, a pointer-per-node map with per-node tag
// strings, plus snapshot v2 load times (streamed and mmapped; the v1 gob
// decode they were first measured against was removed in PR 18, its
// numbers stay in EXPERIMENTS.md). The benchmarks run at smoke scale (a
// ~4.9k-node city) so `make bench-smoke` keeps them compiling;
// TestE20BenchArtifact rebuilds the measurements on a city-scale world
// (≥1M nodes at the default 590 blocks), writes BENCH_world.json, and
// enforces the floors the design claims: columnar bytes/node ≥4× leaner
// than the pointer layout, and byte-identical serving parity between the
// generated, v2-loaded, and mmap-loaded worlds.
package openflame

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"openflame/internal/geocode"
	"openflame/internal/graph"
	"openflame/internal/osm"
	"openflame/internal/search"
	"openflame/internal/store"
	"openflame/internal/worldgen"
)

// e20SmokeBlocks sizes the benchmark fixture: (B+1)² intersections plus
// 2B² POIs ≈ 4.9k nodes — big enough to time, small enough for the 1x
// smoke sweep.
const e20SmokeBlocks = 40

var e20 struct {
	once     sync.Once
	m        *osm.Map
	v2       []byte // v2 (columnar) snapshot of m
	snapPath string // v2 snapshot on disk, for the mmap path
	se       *search.Searcher
	gc       *geocode.Geocoder
	g        *graph.Graph
	pairs    [][2]int64
}

// e20City generates a city map with a blocks×blocks street grid
// (~3·blocks² nodes with the default 2 POIs per block).
func e20City(blocks int) *osm.Map {
	p := worldgen.DefaultCityParams()
	p.BlocksX, p.BlocksY = blocks, blocks
	return worldgen.GenWorld(worldgen.WorldParams{City: p}).Outdoor
}

func e20Fixtures() {
	e20.once.Do(func() {
		e20.m = e20City(e20SmokeBlocks)
		var v2 bytes.Buffer
		if err := e20.m.WriteSnapshotVersionsIndexed(&v2, nil, nil); err != nil {
			panic(err)
		}
		e20.v2 = v2.Bytes()
		f, err := os.CreateTemp("", "e20-*.snap")
		if err != nil {
			panic(err)
		}
		if _, err := f.Write(e20.v2); err != nil {
			panic(err)
		}
		if err := f.Close(); err != nil {
			panic(err)
		}
		e20.snapPath = f.Name()

		st := store.New(e20.m)
		e20.se = search.New(st)
		e20.gc = geocode.New(st)
		e20.g = graph.FromOSM(e20.m, graph.FootProfile)
		ids := e20.g.NodeIDs()
		rng := rand.New(rand.NewSource(20))
		e20.pairs = make([][2]int64, 64)
		for i := range e20.pairs {
			e20.pairs[i] = [2]int64{ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]}
		}
	})
}

func benchE20LoadV2(b *testing.B) {
	e20Fixtures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _, _, err := osm.ReadSnapshotIndexed(bytes.NewReader(e20.v2))
		if err != nil {
			b.Fatal(err)
		}
		if m.NodeCount() != e20.m.NodeCount() {
			b.Fatalf("v2 load: %d nodes", m.NodeCount())
		}
	}
}

func benchE20LoadV2Mapped(b *testing.B) {
	e20Fixtures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _, _, err := osm.LoadSnapshotFileIndexed(e20.snapPath)
		if err != nil {
			b.Fatal(err)
		}
		if m.NodeCount() != e20.m.NodeCount() {
			b.Fatalf("mmap load: %d nodes", m.NodeCount())
		}
	}
}

func BenchmarkE20_SnapshotLoad(b *testing.B) {
	b.Run("v2", benchE20LoadV2)
	b.Run("v2-mmap", benchE20LoadV2Mapped)
}

func benchE20Search(b *testing.B) {
	e20Fixtures()
	near := worldgen.DefaultCityParams().Origin
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := e20.se.Search("golden cafe", search.Options{Near: &near, Limit: 10}); len(res) == 0 {
			b.Fatal("no search results")
		}
	}
}

func benchE20Geocode(b *testing.B) {
	e20Fixtures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := e20.gc.Forward("2nd Street", 3); len(res) == 0 {
			b.Fatal("no geocode results")
		}
	}
}

func benchE20Route(b *testing.B) {
	e20Fixtures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := e20.pairs[i%len(e20.pairs)]
		if _, err := e20.g.BiDijkstra(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE20_Serve(b *testing.B) {
	b.Run("search", benchE20Search)
	b.Run("geocode", benchE20Geocode)
	b.Run("route", benchE20Route)
}

// heapLive returns the live heap after settling the collector; deltas
// between calls price a data structure the way a resident server pays for
// it, rather than summing allocation sites.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// pointerTwin rebuilds the node population in the pre-columnar layout: one
// heap object per node in a map, each with its own Tags map and private
// string copies (the old generator formatted tag values per node, so
// strings were not shared between nodes).
func pointerTwin(m *osm.Map) map[osm.NodeID]*osm.Node {
	tw := make(map[osm.NodeID]*osm.Node, m.NodeCount())
	m.Nodes(func(n *osm.Node) bool {
		c := *n
		tags := make(osm.Tags, len(n.Tags))
		for k, v := range n.Tags {
			tags[strings.Clone(k)] = strings.Clone(v)
		}
		c.Tags = tags
		tw[c.ID] = &c
		return true
	})
	return tw
}

// e20ServingSignature renders a fixed serving workload — search, geocode,
// and one corner-to-corner route — into a string, so two worlds can be
// compared for byte-identical serving behaviour.
func e20ServingSignature(m *osm.Map) string {
	st := store.New(m)
	se := search.New(st)
	gc := geocode.New(st)
	g := graph.FromOSM(m, graph.FootProfile)
	var sb strings.Builder
	near := worldgen.DefaultCityParams().Origin
	for _, q := range []string{"golden cafe", "royal books", "corner deli"} {
		fmt.Fprintf(&sb, "search %q: %+v\n", q, se.Search(q, search.Options{Near: &near, Limit: 5}))
	}
	fmt.Fprintf(&sb, "geocode: %+v\n", gc.Forward("2nd Street", 3))
	ids := g.NodeIDs()
	path, err := g.BiDijkstra(ids[0], ids[len(ids)-1])
	if err != nil {
		fmt.Fprintf(&sb, "route error: %v\n", err)
	} else {
		fmt.Fprintf(&sb, "route: cost=%v nodes=%+v\n", path.Cost, path.Nodes)
	}
	return sb.String()
}

// e20XMLDigest hashes the canonical XML serialization (sorted tags, sorted
// walks) — a deep-equality probe that never materializes the document.
func e20XMLDigest(t *testing.T, m *osm.Map) [32]byte {
	h := sha256.New()
	if err := m.WriteXML(h); err != nil {
		t.Fatal(err)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// TestE20BenchArtifact writes BENCH_world.json (when BENCH_WORLD_JSON
// names the output path; `make bench-world` sets it) and enforces the
// memory floor on a city-scale world. BENCH_WORLD_BLOCKS
// overrides the grid size (default 590 ≈ 1.05M nodes) for quicker local
// runs. Skipped in the ordinary test run: the full build takes minutes
// and timing assertions belong in dedicated bench invocations.
func TestE20BenchArtifact(t *testing.T) {
	out := os.Getenv("BENCH_WORLD_JSON")
	if out == "" {
		t.Skip("set BENCH_WORLD_JSON=<path> (or run `make bench-world`) to produce the artifact")
	}
	blocks := 590
	if s := os.Getenv("BENCH_WORLD_BLOCKS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 2 {
			t.Fatalf("BENCH_WORLD_BLOCKS=%q: want an integer ≥ 2", s)
		}
		blocks = n
	}

	genStart := time.Now()
	m := e20City(blocks)
	genMs := time.Since(genStart).Seconds() * 1e3
	nodes, ways := m.NodeCount(), m.WayCount()
	t.Logf("E20: generated %d-block city: %d nodes, %d ways in %.0fms", blocks, nodes, ways, genMs)

	var v2buf bytes.Buffer
	if err := m.WriteSnapshotVersionsIndexed(&v2buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "world.snap")
	if err := os.WriteFile(snapPath, v2buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Parity: the same world loaded through the streamed v2 reader and the
	// mmap file path must serve byte-identical results and serialize to
	// byte-identical canonical XML.
	parity := true
	{
		mV2, _, _, err := osm.ReadSnapshotIndexed(bytes.NewReader(v2buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		mMap, _, _, err := osm.LoadSnapshotFileIndexed(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		if d1, d2, dm := e20XMLDigest(t, m), e20XMLDigest(t, mV2), e20XMLDigest(t, mMap); d1 != d2 || d1 != dm {
			parity = false
			t.Errorf("canonical XML diverges between generated / v2-loaded / mmap-loaded worlds")
		}
		sig := e20ServingSignature(m)
		if s := e20ServingSignature(mV2); s != sig {
			parity = false
			t.Errorf("v2-loaded world serves different results than the generated world")
		}
		if s := e20ServingSignature(mMap); s != sig {
			parity = false
			t.Errorf("mmap-loaded world serves different results than the generated world")
		}
		t.Logf("E20: parity across v2/mmap loads: %v (mmap=%v)", parity, mMap.Mapped())
	}

	// Memory: the measured live-heap cost of each representation, loaded
	// fresh so the collector prices exactly one world per measurement.
	base := heapLive()
	colM, _, _, err := osm.ReadSnapshotIndexed(bytes.NewReader(v2buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	columnarBytes := heapLive() - base
	base = heapLive()
	tw := pointerTwin(colM)
	pointerBytes := heapLive() - base
	if len(tw) != nodes {
		t.Fatalf("pointer twin has %d nodes, want %d", len(tw), nodes)
	}
	runtime.KeepAlive(tw)
	runtime.KeepAlive(colM)
	tw = nil
	colM = nil
	bpnCol := float64(columnarBytes) / float64(nodes)
	bpnPtr := float64(pointerBytes) / float64(nodes)
	memRatio := bpnPtr / bpnCol

	// Load + serving timings, via the same harness the smoke benchmarks
	// compile. The package fixture is rebuilt at artifact scale so every
	// benchE20* body measures the city-scale world.
	e20.once.Do(func() {}) // claim the once; fields are set directly below
	e20.m = m
	e20.v2 = v2buf.Bytes()
	e20.snapPath = snapPath
	idxStart := time.Now()
	st := store.New(m)
	idxMs := time.Since(idxStart).Seconds() * 1e3
	e20.se = search.New(st)
	e20.gc = geocode.New(st)
	e20.g = graph.FromOSM(m, graph.FootProfile)
	ids := e20.g.NodeIDs()
	rng := rand.New(rand.NewSource(20))
	e20.pairs = make([][2]int64, 64)
	for i := range e20.pairs {
		e20.pairs[i] = [2]int64{ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]}
	}
	coldStart := time.Now()
	near := worldgen.DefaultCityParams().Origin
	if res := e20.se.Search("golden cafe", search.Options{Near: &near, Limit: 10}); len(res) == 0 {
		t.Fatal("cold search returned nothing")
	}
	coldSearchMs := time.Since(coldStart).Seconds() * 1e3

	type result struct {
		Name        string  `json:"name"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
	}
	measure := func(name string, fn func(*testing.B)) result {
		r := testing.Benchmark(fn)
		return result{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
		}
	}
	loadV2 := measure("load/v2", benchE20LoadV2)
	loadMmap := measure("load/v2-mmap", benchE20LoadV2Mapped)
	srch := measure("serve/search", benchE20Search)
	geoc := measure("serve/geocode", benchE20Geocode)
	route := measure("serve/route", benchE20Route)

	artifact := struct {
		Experiment      string   `json:"experiment"`
		Blocks          int      `json:"blocks"`
		Nodes           int      `json:"nodes"`
		Ways            int      `json:"ways"`
		GenMs           float64  `json:"gen_ms"`
		V2SnapshotBytes int      `json:"v2_snapshot_bytes"`
		ColumnarBytes   uint64   `json:"columnar_heap_bytes"`
		PointerBytes    uint64   `json:"pointer_heap_bytes"`
		BytesPerNodeCol float64  `json:"bytes_per_node_columnar"`
		BytesPerNodePtr float64  `json:"bytes_per_node_pointer"`
		MemoryRatio     float64  `json:"memory_ratio"`
		IndexBuildMs    float64  `json:"index_build_ms"`
		ColdSearchMs    float64  `json:"cold_search_ms"`
		ParityByteExact bool     `json:"parity_byte_exact"`
		Results         []result `json:"results"`
	}{
		Experiment:      "E20",
		Blocks:          blocks,
		Nodes:           nodes,
		Ways:            ways,
		GenMs:           genMs,
		V2SnapshotBytes: v2buf.Len(),
		ColumnarBytes:   columnarBytes,
		PointerBytes:    pointerBytes,
		BytesPerNodeCol: bpnCol,
		BytesPerNodePtr: bpnPtr,
		MemoryRatio:     memRatio,
		IndexBuildMs:    idxMs,
		ColdSearchMs:    coldSearchMs,
		ParityByteExact: parity,
		Results:         []result{loadV2, loadMmap, srch, geoc, route},
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("E20: %.1f B/node columnar vs %.1f B/node pointer (%.1fx); v2 load %.0fms, mmap %.2fms; search %.0fµs geocode %.0fµs route %.0fµs",
		bpnCol, bpnPtr, memRatio,
		loadV2.NsPerOp/1e6, loadMmap.NsPerOp/1e6,
		srch.NsPerOp/1e3, geoc.NsPerOp/1e3, route.NsPerOp/1e3)
	if memRatio < 4 {
		t.Errorf("columnar layout only %.2fx leaner than the pointer layout, want ≥4x", memRatio)
	}
}
