package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// city12 stands in for city48 in tests: same generators, a world that
// boots in milliseconds.
var city12 = worldSpec{name: "city12", blocks: 12, stores: 1, replicas: func(int) int { return 1 }}

func testWorkloads() []workload {
	out := append([]workload(nil), workloads...)
	for i := range out {
		if out[i].world.name == city48.name {
			out[i].world = city12
		}
	}
	return out
}

func TestRequestStreamsAreSeeded(t *testing.T) {
	for _, wl := range testWorkloads() {
		fx, err := newFixture(wl.world, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		tb, err := newTables(fx)
		if err != nil {
			t.Fatal(err)
		}
		a, b := streamHash(wl.gen(tb), 7, 500), streamHash(wl.gen(tb), 7, 500)
		if a != b {
			t.Errorf("%s: seed 7 gave request streams %x and %x", wl.name, a, b)
		}
		if c := streamHash(wl.gen(tb), 8, 500); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", wl.name)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with ten beyond", v, ok)
	}
	if v, ok := percentile(xs[:999], 99); v != 990 || ok {
		t.Errorf("p99 of 1..999 = %v, %v; want 990 with only nine beyond", v, ok)
	}
	if v, ok := percentile(xs[:21], 50); v != 11 || !ok {
		t.Errorf("p50 of 1..21 = %v, %v; want 11 with ten beyond", v, ok)
	}
	if _, ok := percentile(xs[:19], 50); ok {
		t.Error("p50 of 19 samples reported with nine beyond")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("a percentile of nothing was reported")
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanOp, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanRoundTrip, Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: spanRoundTrip, Start: 30, End: 60}, // overlaps 2 by 10
		{ID: 4, Parent: 1, Name: spanExchange, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: spanHandler, Start: 15, End: 35},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 20, 3: 30, 4: 30, 5: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestWorkloadsRunClean(t *testing.T) {
	for _, wl := range testWorkloads() {
		res, err := runWorkload(context.Background(), wl, config{
			seed: 3, window: 150 * time.Millisecond, traced: 150 * time.Millisecond,
			setups: 1, warmup: 200 / wl.callers, oracle: 20, outDir: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 || res.OracleRejected != 0 || res.OracleChecked == 0 {
			t.Errorf("%s: attempted %d failed %d, oracle checked %d rejected %d",
				wl.name, res.Attempted, res.Failed, res.OracleChecked, res.OracleRejected)
		}
		for _, s := range endToEndSpecs {
			if r, ok := res.EndToEnd[s.Name]; !ok || r.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", wl.name, s.Name, r.Value)
			}
		}
		for _, s := range perLayerSpecs {
			if _, ok := res.PerLayer[s.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wl.name, s.Name)
			}
		}
	}
}

func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	same := func(list string, got []metric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", list, len(got), len(want))
		}
		for i, w := range want {
			if !name.MatchString(w.Name) {
				t.Errorf("%s: %q is not a metric name the driver accepts", list, w.Name)
			}
			if g := got[i]; g != (metric{w.Name, w.Unit, w.Better, w.Bound}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", list, i, g, w)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEndSpecs)
	same("per_layer", file.PerLayer, perLayerSpecs)
}
