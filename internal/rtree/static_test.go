package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"openflame/internal/geo"
)

// buildPair inserts the same random items into a dynamic tree and
// bulk-loads a static one, returning both plus the raw entries.
func buildPair(rng *rand.Rand, n int, rects bool) (*Tree[int], *Static[int], []Entry[int]) {
	dyn := New[int]()
	ents := make([]Entry[int], n)
	for i := range ents {
		ll := geo.LatLng{Lat: -85 + rng.Float64()*170, Lng: -179.99 + rng.Float64()*359.98}
		b := ptRect(ll)
		if rects && rng.Intn(2) == 0 {
			b.MaxLat = math.Min(85, b.MinLat+rng.Float64()*0.5)
			b.MaxLng = math.Min(179.99, b.MinLng+rng.Float64()*0.5)
		}
		ents[i] = Entry[int]{Bound: b, Item: i}
		dyn.Insert(b, i)
	}
	return dyn, BulkLoad(ents), ents
}

func searchSet(t *testing.T, q geo.Rect, dyn *Tree[int], st *Static[int]) ([]int, []int) {
	t.Helper()
	var want, got []int
	dyn.Search(q, func(_ geo.Rect, it int) bool { want = append(want, it); return true })
	st.Search(q, func(_ geo.Rect, it int) bool { got = append(got, it); return true })
	sort.Ints(want)
	sort.Ints(got)
	return want, got
}

func TestStaticSearchParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 5, 16, 17, 300, 5000} {
		dyn, st, _ := buildPair(rng, n, true)
		if st.Len() != n || dyn.Len() != n {
			t.Fatalf("n=%d: Len static=%d dynamic=%d", n, st.Len(), dyn.Len())
		}
		for trial := 0; trial < 60; trial++ {
			q := geo.RectFromCenter(geo.LatLng{
				Lat: -85 + rng.Float64()*170, Lng: -175 + rng.Float64()*350,
			}, rng.Float64()*8, rng.Float64()*8)
			want, got := searchSet(t, q, dyn, st)
			if len(want) != len(got) {
				t.Fatalf("n=%d trial=%d: dynamic found %d, static %d", n, trial, len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("n=%d trial=%d: item mismatch at %d", n, trial, i)
				}
			}
		}
		// The whole world, an empty-result region, and an empty rect.
		for _, q := range []geo.Rect{
			{MinLat: -90, MinLng: -180, MaxLat: 90, MaxLng: 180},
			{MinLat: 89.9, MinLng: 179.9, MaxLat: 89.95, MaxLng: 179.95},
			geo.EmptyRect(),
		} {
			want, got := searchSet(t, q, dyn, st)
			if len(want) != len(got) {
				t.Fatalf("n=%d q=%v: dynamic found %d, static %d", n, q, len(want), len(got))
			}
		}
	}
}

// An antimeridian-straddling query (MinLng > MaxLng) reads as empty under
// geo.Rect semantics; both trees must agree it matches nothing — callers
// split such queries into two rects themselves.
func TestStaticSearchAntimeridianParity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dyn, st, _ := buildPair(rng, 2000, false)
	straddle := geo.Rect{MinLat: -80, MinLng: 170, MaxLat: 80, MaxLng: -170}
	want, got := searchSet(t, straddle, dyn, st)
	if len(want) != 0 || len(got) != 0 {
		t.Fatalf("antimeridian rect matched: dynamic %d, static %d (want 0, 0)", len(want), len(got))
	}
	// The split halves, by contrast, must agree on real matches.
	for _, q := range []geo.Rect{
		{MinLat: -80, MinLng: 170, MaxLat: 80, MaxLng: 180},
		{MinLat: -80, MinLng: -180, MaxLat: 80, MaxLng: -170},
	} {
		w, g := searchSet(t, q, dyn, st)
		if len(w) != len(g) {
			t.Fatalf("split half %v: dynamic %d, static %d", q, len(w), len(g))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("split half %v: item mismatch at %d", q, i)
			}
		}
	}
}

// Nearest parity runs at regional scale (a few degrees, like a served
// map): the clamped-point rectangle distance both trees prune with is only
// a true great-circle lower bound there, so that is the domain where the
// two tree shapes provably return identical results.
func buildRegionalPair(rng *rand.Rand, n int) (*Tree[int], *Static[int]) {
	dyn := New[int]()
	ents := make([]Entry[int], n)
	for i := range ents {
		b := ptRect(geo.LatLng{Lat: 40 + rng.Float64()*2, Lng: -80 + rng.Float64()*2})
		ents[i] = Entry[int]{Bound: b, Item: i}
		dyn.Insert(b, i)
	}
	return dyn, BulkLoad(ents)
}

func TestStaticNearestParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 40, 3000} {
		dyn, st := buildRegionalPair(rng, n)
		for trial := 0; trial < 30; trial++ {
			q := geo.LatLng{Lat: 40 + rng.Float64()*2, Lng: -80 + rng.Float64()*2}
			k := 1 + rng.Intn(12)
			maxM := 0.0
			if trial%3 == 0 {
				maxM = 1_000 + rng.Float64()*100_000
			}
			want := dyn.Nearest(q, k, maxM)
			got := st.Nearest(q, k, maxM)
			if len(want) != len(got) {
				t.Fatalf("n=%d trial=%d: dynamic %d results, static %d", n, trial, len(want), len(got))
			}
			for i := range want {
				if math.Abs(want[i].DistanceMeters-got[i].DistanceMeters) > 1e-6 {
					t.Fatalf("n=%d trial=%d rank %d: dist %v vs %v",
						n, trial, i, want[i].DistanceMeters, got[i].DistanceMeters)
				}
			}
		}
	}
}

func TestStaticLayoutRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{0, 1, 100, 4000} {
		_, st, _ := buildPair(rng, n, n%2 == 0)
		re, err := StaticFromLayout(st.Layout(), st.Items())
		if err != nil {
			t.Fatalf("n=%d: StaticFromLayout: %v", n, err)
		}
		q := geo.Rect{MinLat: -90, MinLng: -180, MaxLat: 90, MaxLng: 180}
		var a, b int
		st.Search(q, func(geo.Rect, int) bool { a++; return true })
		re.Search(q, func(geo.Rect, int) bool { b++; return true })
		if a != b || a != n {
			t.Fatalf("n=%d: round-tripped tree found %d, original %d", n, b, a)
		}
	}
}

func TestStaticFromLayoutRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	_, st, _ := buildPair(rng, 300, false)
	base := st.Layout()
	items := st.Items()

	corrupt := func(mut func(*StaticLayout, *[]int)) (err error) {
		lay := base
		lay.ChildLo = append([]int32(nil), base.ChildLo...)
		lay.ChildHi = append([]int32(nil), base.ChildHi...)
		lay.LevelOff = append([]int32(nil), base.LevelOff...)
		its := append([]int(nil), items...)
		mut(&lay, &its)
		_, err = StaticFromLayout(lay, its)
		return err
	}

	cases := map[string]func(*StaticLayout, *[]int){
		"truncated items": func(l *StaticLayout, its *[]int) { *its = (*its)[:len(*its)-1] },
		"child gap":       func(l *StaticLayout, _ *[]int) { l.ChildLo[3]++ },
		"child overflow":  func(l *StaticLayout, _ *[]int) { l.ChildHi[len(l.ChildHi)-1] += 5 },
		"level off":       func(l *StaticLayout, _ *[]int) { l.LevelOff[1]++ },
		"multi-node root": func(l *StaticLayout, _ *[]int) {
			l.LevelOff = append(l.LevelOff[:len(l.LevelOff)-1], l.LevelOff[len(l.LevelOff)-1]+1)
		},
		"empty child range": func(l *StaticLayout, _ *[]int) { l.ChildHi[0] = l.ChildLo[0] },
	}
	for name, mut := range cases {
		if err := corrupt(mut); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
	if _, err := StaticFromLayout(base, items); err != nil {
		t.Fatalf("pristine layout rejected: %v", err)
	}
}

func TestBulkLoadDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	ents := make([]Entry[int], 2000)
	for i := range ents {
		ents[i] = Entry[int]{Bound: ptRect(geo.LatLng{Lat: rng.Float64() * 10, Lng: rng.Float64() * 10}), Item: i}
	}
	a := BulkLoad(append([]Entry[int](nil), ents...))
	b := BulkLoad(append([]Entry[int](nil), ents...))
	la, lb := a.Layout(), b.Layout()
	for i := range la.ItemMinLat {
		if la.ItemMinLat[i] != lb.ItemMinLat[i] || la.ItemMinLng[i] != lb.ItemMinLng[i] || a.items[i] != b.items[i] {
			t.Fatalf("nondeterministic STR order at item %d", i)
		}
	}
	for i := range la.ChildLo {
		if la.ChildLo[i] != lb.ChildLo[i] || la.ChildHi[i] != lb.ChildHi[i] {
			t.Fatalf("nondeterministic tree structure at node %d", i)
		}
	}
}

func TestStaticPointItemsAliasMaxColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	_, pts, _ := buildPair(rng, 100, false)
	lay := pts.Layout()
	if !lay.PointItems() {
		t.Fatal("point-only tree did not alias its Max columns")
	}
	_, rects, _ := buildPair(rng, 100, true)
	lay = rects.Layout()
	if lay.PointItems() {
		t.Fatal("rect tree aliased its Max columns")
	}
}

// TestNearestAllocsPin pins the dynamic tree's nearest-neighbour query to
// zero allocations with a reused result buffer (the frontier heap is
// pooled), like the CH query pin — the R-tree sits on the reverse-geocode
// and snap serving paths.
func TestNearestAllocsPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pinning is meaningless under -race (sync.Pool drops items)")
	}
	rng := rand.New(rand.NewSource(43))
	tr := New[int64]()
	for i := 0; i < 50_000; i++ {
		tr.Insert(ptRect(geo.LatLng{Lat: 40 + rng.Float64(), Lng: -80 + rng.Float64()}), int64(i))
	}
	buf := make([]Neighbor[int64], 0, 16)
	// Warm the pool outside the measured window.
	buf = tr.NearestAppend(buf[:0], geo.LatLng{Lat: 40.5, Lng: -79.5}, 10, 0)
	allocs := testing.AllocsPerRun(100, func() {
		buf = tr.NearestAppend(buf[:0], geo.LatLng{Lat: 40.5, Lng: -79.5}, 10, 0)
	})
	if allocs != 0 {
		t.Fatalf("Tree.NearestAppend allocs/op = %v, want 0", allocs)
	}
	if len(buf) != 10 {
		t.Fatalf("pinned query returned %d results", len(buf))
	}
}

func TestStaticNearestAllocsPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pinning is meaningless under -race (sync.Pool drops items)")
	}
	rng := rand.New(rand.NewSource(47))
	ents := make([]Entry[int64], 50_000)
	for i := range ents {
		ents[i] = Entry[int64]{Bound: ptRect(geo.LatLng{Lat: 40 + rng.Float64(), Lng: -80 + rng.Float64()}), Item: int64(i)}
	}
	st := BulkLoad(ents)
	buf := make([]Neighbor[int64], 0, 16)
	buf = st.NearestAppend(buf[:0], geo.LatLng{Lat: 40.5, Lng: -79.5}, 10, 0)
	allocs := testing.AllocsPerRun(100, func() {
		buf = st.NearestAppend(buf[:0], geo.LatLng{Lat: 40.5, Lng: -79.5}, 10, 0)
	})
	if allocs != 0 {
		t.Fatalf("Static.NearestAppend allocs/op = %v, want 0", allocs)
	}
	if len(buf) != 10 {
		t.Fatalf("pinned query returned %d results", len(buf))
	}
}

// --- static vs dynamic query benchmarks (the E21 query-side comparison) ---

func benchTrees(n int) (*Tree[int64], *Static[int64]) {
	rng := rand.New(rand.NewSource(1))
	dyn := New[int64]()
	ents := make([]Entry[int64], n)
	for i := range ents {
		b := ptRect(geo.LatLng{Lat: 40 + rng.Float64(), Lng: -80 + rng.Float64()})
		ents[i] = Entry[int64]{Bound: b, Item: int64(i)}
		dyn.Insert(b, int64(i))
	}
	return dyn, BulkLoad(ents)
}

func BenchmarkSearchDynamic(b *testing.B) {
	dyn, _ := benchTrees(100_000)
	q := geo.RectFromCenter(geo.LatLng{Lat: 40.5, Lng: -79.5}, 0.01, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dyn.Search(q, func(geo.Rect, int64) bool { return true })
	}
}

func BenchmarkSearchStatic(b *testing.B) {
	_, st := benchTrees(100_000)
	q := geo.RectFromCenter(geo.LatLng{Lat: 40.5, Lng: -79.5}, 0.01, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Search(q, func(geo.Rect, int64) bool { return true })
	}
}

func BenchmarkNearestDynamic(b *testing.B) {
	dyn, _ := benchTrees(100_000)
	buf := make([]Neighbor[int64], 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = dyn.NearestAppend(buf[:0], geo.LatLng{Lat: 40.5, Lng: -79.5}, 10, 0)
	}
}

func BenchmarkNearestStatic(b *testing.B) {
	_, st := benchTrees(100_000)
	buf := make([]Neighbor[int64], 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = st.NearestAppend(buf[:0], geo.LatLng{Lat: 40.5, Lng: -79.5}, 10, 0)
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ents := make([]Entry[int64], 100_000)
	for i := range ents {
		ents[i] = Entry[int64]{Bound: ptRect(geo.LatLng{Lat: 40 + rng.Float64(), Lng: -80 + rng.Float64()}), Item: int64(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BulkLoad(ents)
	}
}
