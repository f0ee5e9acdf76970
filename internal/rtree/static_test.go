package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"openflame/internal/geo"
)

func ptRect(ll geo.LatLng) geo.Rect {
	return geo.Rect{MinLat: ll.Lat, MinLng: ll.Lng, MaxLat: ll.Lat, MaxLng: ll.Lng}
}

// randomEntries draws n items spread over the globe, half of them
// rectangles when rects is set.
func randomEntries(rng *rand.Rand, n int, rects bool) []Entry[int] {
	ents := make([]Entry[int], n)
	for i := range ents {
		ll := geo.LatLng{Lat: -85 + rng.Float64()*170, Lng: -179.99 + rng.Float64()*359.98}
		b := ptRect(ll)
		if rects && rng.Intn(2) == 0 {
			b.MaxLat = math.Min(85, b.MinLat+rng.Float64()*0.5)
			b.MaxLng = math.Min(179.99, b.MinLng+rng.Float64()*0.5)
		}
		ents[i] = Entry[int]{Bound: b, Item: i}
	}
	return ents
}

// searchSet returns, sorted, the items a brute-force scan of ents finds
// intersecting q and the items st.Search finds.
func searchSet(q geo.Rect, ents []Entry[int], st *Static[int]) ([]int, []int) {
	var want, got []int
	for _, e := range ents {
		if e.Bound.Intersects(q) {
			want = append(want, e.Item)
		}
	}
	st.Search(q, func(_ geo.Rect, it int) bool { got = append(got, it); return true })
	sort.Ints(want)
	sort.Ints(got)
	return want, got
}

func TestStaticSearchParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 5, 16, 17, 300, 5000} {
		ents := randomEntries(rng, n, true)
		st := BulkLoad(ents)
		if st.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, st.Len())
		}
		for trial := 0; trial < 60; trial++ {
			q := geo.RectFromCenter(geo.LatLng{
				Lat: -85 + rng.Float64()*170, Lng: -175 + rng.Float64()*350,
			}, rng.Float64()*8, rng.Float64()*8)
			want, got := searchSet(q, ents, st)
			if len(want) != len(got) {
				t.Fatalf("n=%d trial=%d: scan found %d, static %d", n, trial, len(want), len(got))
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
			want, got := searchSet(q, ents, st)
			if len(want) != len(got) {
				t.Fatalf("n=%d q=%v: scan found %d, static %d", n, q, len(want), len(got))
			}
		}
	}
}

// An antimeridian-straddling query (MinLng > MaxLng) reads as empty under
// geo.Rect semantics; the tree and a scan must agree it matches nothing —
// callers split such queries into two rects themselves.
func TestStaticSearchAntimeridianParity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ents := randomEntries(rng, 2000, false)
	st := BulkLoad(ents)
	straddle := geo.Rect{MinLat: -80, MinLng: 170, MaxLat: 80, MaxLng: -170}
	want, got := searchSet(straddle, ents, st)
	if len(want) != 0 || len(got) != 0 {
		t.Fatalf("antimeridian rect matched: scan %d, static %d (want 0, 0)", len(want), len(got))
	}
	// The split halves, by contrast, must agree on real matches.
	for _, q := range []geo.Rect{
		{MinLat: -80, MinLng: 170, MaxLat: 80, MaxLng: 180},
		{MinLat: -80, MinLng: -180, MaxLat: 80, MaxLng: -170},
	} {
		w, g := searchSet(q, ents, st)
		if len(w) != len(g) {
			t.Fatalf("split half %v: scan %d, static %d", q, len(w), len(g))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("split half %v: item mismatch at %d", q, i)
			}
		}
	}
}

// Nearest parity runs at regional scale (a few degrees, like a served
// map): the clamped-point rectangle distance the tree prunes with is only
// a true great-circle lower bound there, so that is the domain where the
// tree provably returns the scan's k nearest.
func TestStaticNearestParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 40, 3000} {
		pts := make([]geo.LatLng, n)
		ents := make([]Entry[int], n)
		for i := range ents {
			pts[i] = geo.LatLng{Lat: 40 + rng.Float64()*2, Lng: -80 + rng.Float64()*2}
			ents[i] = Entry[int]{Bound: ptRect(pts[i]), Item: i}
		}
		st := BulkLoad(ents)
		for trial := 0; trial < 30; trial++ {
			q := geo.LatLng{Lat: 40 + rng.Float64()*2, Lng: -80 + rng.Float64()*2}
			k := 1 + rng.Intn(12)
			maxM := 0.0
			if trial%3 == 0 {
				maxM = 1_000 + rng.Float64()*100_000
			}
			var want []float64
			for _, p := range pts {
				if d := geo.DistanceMeters(q, p); maxM <= 0 || d <= maxM {
					want = append(want, d)
				}
			}
			sort.Float64s(want)
			if len(want) > k {
				want = want[:k]
			}
			got := st.Nearest(q, k, maxM)
			if len(want) != len(got) {
				t.Fatalf("n=%d trial=%d: scan %d results, static %d", n, trial, len(want), len(got))
			}
			for i := range want {
				if math.Abs(want[i]-got[i].DistanceMeters) > 1e-6 {
					t.Fatalf("n=%d trial=%d rank %d: dist %v vs %v",
						n, trial, i, want[i], got[i].DistanceMeters)
				}
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	ents := make([]Entry[int], 100)
	for i := range ents {
		ents[i] = Entry[int]{Bound: ptRect(geo.LatLng{Lat: 40, Lng: -80}), Item: i}
	}
	st := BulkLoad(ents)
	count := 0
	st.Search(geo.RectFromCenter(geo.LatLng{Lat: 40, Lng: -80}, 1, 1), func(_ geo.Rect, _ int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestStaticLayoutRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{0, 1, 100, 4000} {
		st := BulkLoad(randomEntries(rng, n, n%2 == 0))
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
	st := BulkLoad(randomEntries(rng, 300, false))
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
	pts := BulkLoad(randomEntries(rng, 100, false))
	lay := pts.Layout()
	if !lay.PointItems() {
		t.Fatal("point-only tree did not alias its Max columns")
	}
	rects := BulkLoad(randomEntries(rng, 100, true))
	lay = rects.Layout()
	if lay.PointItems() {
		t.Fatal("rect tree aliased its Max columns")
	}
}

// TestStaticNearestAllocsPin pins the nearest-neighbour query to zero
// allocations with a reused result buffer (the frontier heap is pooled),
// like the CH query pin — the tree sits on the reverse-geocode and snap
// serving paths.
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

func benchTree(n int) *Static[int64] {
	rng := rand.New(rand.NewSource(1))
	ents := make([]Entry[int64], n)
	for i := range ents {
		ents[i] = Entry[int64]{Bound: ptRect(geo.LatLng{Lat: 40 + rng.Float64(), Lng: -80 + rng.Float64()}), Item: int64(i)}
	}
	return BulkLoad(ents)
}

func BenchmarkSearchStatic(b *testing.B) {
	st := benchTree(100_000)
	q := geo.RectFromCenter(geo.LatLng{Lat: 40.5, Lng: -79.5}, 0.01, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Search(q, func(geo.Rect, int64) bool { return true })
	}
}

func BenchmarkNearestStatic(b *testing.B) {
	st := benchTree(100_000)
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
