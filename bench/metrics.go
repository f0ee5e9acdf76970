package main

import (
	"sort"
	"time"
)

// metricSpec declares one metric: BENCHMARK.json repeats name, unit,
// better and bound, and bench_test.go holds the two lists equal.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move, or says why an end-to-end metric exists.
	Moves string
}

// endToEndSpecs are measured on every workload and are never zero, as the
// driver's contract requires. Each bound is at least three times the
// spread (quartile distance over median) the metric showed across ten seeds
// of one commit on a shared 2-core box, and wide enough that two single
// runs (-agree) stay inside it when a neighbour takes the box for a while.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25, "boot from fixture to first 200 with hierarchies ready, plus a fixed warm-up of 750 ops per caller; median of three set-ups"},
	{"ops_per_s", "1/s", "higher", 0.15, "successful ops per second, median over the window's one-second slices"},
	{"op_p50_ms", "ms", "lower", 0.18, "median latency of all ops"},
	{"op_p99_ms", "ms", "lower", 0.25, "99th percentile latency of all ops"},
	{"search_p50_ms", "ms", "lower", 0.15, "SearchV2 median"},
	{"route_p50_ms", "ms", "lower", 0.15, "RouteV2 median"},
	{"cpu_ms_per_op", "ms", "lower", 0.15, "process user+sys CPU over the window per successful op: the whole federation's bill"},
	{"heap_live_mb", "MB", "lower", 0.15, "HeapAlloc after a forced GC at window end"},
}

// workloadSpecs are end-to-end numbers that cannot carry a bound. Some
// exist on some workloads only, and the contract wants every bounded metric
// on every workload and never zero. The two per-service p99s spread 7-23 %
// between runs of one commit here, wider than any bound worth having. All
// ride in the per-layer list (0 where the service is absent), taken from
// the untraced window of a traced run.
var workloadSpecs = []metricSpec{
	{"search_p99_ms", "ms", "lower", 0, "SearchV2 99th percentile"},
	{"route_p99_ms", "ms", "lower", 0, "RouteV2 99th percentile"},
	{"geocode_p50_ms", "ms", "lower", 0, "GeocodeV2 median; all but churn_watch"},
	{"localize_p50_ms", "ms", "lower", 0, "LocalizeV2 median; fed_fanout"},
	{"tile_p50_ms", "ms", "lower", 0, "TilePNGV2 median; city_hot"},
	{"write_visible_p50_ms", "ms", "lower", 0, "ApplyInventoryUpdate call to delta on a WatchV2 channel; churn_watch"},
	{"write_visible_p95_ms", "ms", "lower", 0, "the same, 95th percentile: about 300 samples carry no higher; churn_watch"},
	{"fail_ratio", "ratio", "lower", 0, "failed ops over attempted; expected 0 everywhere"},
}

// layerSpecs are the traced run's numbers, prefixed by the module they
// measure.
var layerSpecs = func() []metricSpec {
	setup := "setup_s on city_hot and city_cold (hierarchies are most of boot); not fed_fanout"
	client := "search_p50_ms and cpu_ms_per_op on city_hot and fed_fanout; not route on city_cold"
	disc := "search_p50_ms and geocode_p50_ms on city_hot and fed_fanout; not route_p50_ms on city_cold"
	dns := "op_p99_ms on city_cold (many cells); not city_hot"
	httpm := "ops_per_s and cpu_ms_per_op on fed_fanout (9.6 requests per op) and city_hot"
	cache := "ops_per_s, city_hot against churn_watch"
	compute := "search/geocode/route p50 and route_p99_ms on city_cold; not city_hot or fed_fanout"
	write := "write_visible_p50_ms, write_visible_p95_ms and search_p50_ms on churn_watch; no read-only workload"
	proc := "cpu_ms_per_op and op_p99_ms everywhere"
	specs := []metricSpec{
		{"osm.snapshot_load_s", "s", "lower", 0, setup},
		{"store.attach_s", "s", "lower", 0, setup},
		{"mapserver.new_s", "s", "lower", 0, setup},
		{"graph.build_ch_s", "s", "lower", 0, setup},
		{"discovery.register_s", "s", "lower", 0, setup},
		{"setup.first_200_s", "s", "lower", 0, setup},
		{"setup.warmup_s", "s", "lower", 0, setup},
		{"worldgen.gen_s", "s", "lower", 0, "fixture only, outside setup_s"},
		{"osm.snapshot_write_s", "s", "lower", 0, "fixture only, outside setup_s"},

		{"client.self_us_p50", "us", "lower", 0, client},
		{"client.http_reqs_per_op", "count", "lower", 0, client},
		{"client.bytes_in_per_op", "B", "lower", 0, client},
		{"client.bytes_out_per_op", "B", "lower", 0, client},
		{"client.retries_per_kop", "count", "lower", 0, client},

		{"discovery.region_us_p50", "us", "lower", 0, disc},
		{"discovery.point_us_p50", "us", "lower", 0, disc},
		{"discovery.anns_per_region_p50", "count", "lower", 0, disc},

		{"dns.exchanges_per_kop", "count", "lower", 0, dns},
		{"dns.exchange_us_p50", "us", "lower", 0, dns},
		{"dns.cache_hit_ratio", "ratio", "higher", 0, dns},

		{"http.roundtrip_us_p50", "us", "lower", 0, httpm},
		{"http.roundtrip_us_p99", "us", "lower", 0, httpm},
		{"http.overhead_us_p50", "us", "lower", 0, httpm},
	}
	for _, svc := range services {
		moves := svc + " p50 and ops_per_s: envelope on city_hot, direct on city_cold, each not on the other"
		specs = append(specs,
			metricSpec{"mapserver." + svc + ".handler_us_p50", "us", "lower", 0, moves},
			metricSpec{"mapserver." + svc + ".direct_us_p50", "us", "lower", 0, moves},
			metricSpec{"mapserver." + svc + ".envelope_us_p50", "us", "lower", 0, moves},
			metricSpec{"mapserver." + svc + ".reqs_per_kop", "count", "lower", 0, moves},
		)
	}
	return append(specs, []metricSpec{
		{"mapserver.cache_hit_ratio", "ratio", "higher", 0, cache},
		{"mapserver.cache_evictions_per_kop", "count", "lower", 0, cache},
		{"mapserver.cache_purged_per_write", "count", "lower", 0, cache},
		{"admission.queued_per_kop", "count", "lower", 0, "guard: expected 0"},
		{"admission.shed_per_kop", "count", "lower", 0, "guard: expected 0"},

		{"search.query_us_p50", "us", "lower", 0, compute},
		{"geocode.forward_us_p50", "us", "lower", 0, compute},
		{"geocode.reverse_us_p50", "us", "lower", 0, compute},
		{"store.nearest_us_p50", "us", "lower", 0, compute},
		{"store.snap_us_p50", "us", "lower", 0, compute},
		{"graph.ch_query_us_p50", "us", "lower", 0, compute},
		{"graph.ch_matrix_us_p50", "us", "lower", 0, compute},
		{"tiles.get_us_p50", "us", "lower", 0, compute},

		{"store.apply_us_p50", "us", "lower", 0, write},
		{"watch.evals_per_write", "count", "lower", 0, write},
		{"watch.events_per_write", "count", "lower", 0, write},
		{"watch.dropped", "count", "lower", 0, write},
		{"mapserver.sync_round_ms_p50", "ms", "lower", 0, write},
		{"mapserver.sync_applied_per_s", "1/s", "higher", 0, write},
		{"loadgen.writer_lag_ms_p99", "ms", "lower", 0, "how late the open-loop writer ran; the benchmark's own"},

		{"proc.allocs_per_op", "count", "lower", 0, proc},
		{"proc.alloc_bytes_per_op", "B", "lower", 0, proc},
		{"proc.gc_cpu_fraction", "ratio", "lower", 0, proc},
		{"trace.overhead_ratio", "ratio", "higher", 0, "traced over untraced ops_per_s; the benchmark's own"},
	}...)
}()

// perLayerSpecs is BENCHMARK.json's per_layer list.
var perLayerSpecs = append(append([]metricSpec(nil), workloadSpecs...), layerSpecs...)

// latencies returns the sorted latencies, in ms, of the window's successful
// ops of the given kind (numKinds = all).
func (w *window) latencies(kind opKind) []float64 {
	var out []float64
	for _, s := range w.samples {
		if s.ok && (kind == numKinds || s.kind == kind) {
			out = append(out, float64(s.lat)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

func (w *window) counts() (attempted, failed int) {
	for _, s := range w.samples {
		if !s.ok {
			failed++
		}
	}
	return len(w.samples), failed
}

// opsPerSecond is the median, over the window's whole one-second slices,
// of successful ops completed in the slice. One stolen time slice on a
// shared box then costs one slice, not the mean.
func (w *window) opsPerSecond() float64 {
	n := int(w.dur / time.Second)
	if n < 1 {
		_, failed := w.counts()
		return float64(len(w.samples)-failed) / w.dur.Seconds()
	}
	slices := make([]float64, n)
	for _, s := range w.samples {
		if i := int(s.end / int64(time.Second)); s.ok && i < n {
			slices[i]++
		}
	}
	return median(slices)
}

// report is a metric value with the samples behind it; Printed is false for
// a percentile with fewer than minBeyond samples beyond it.
type report struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Printed bool    `json:"printed"`
}

// endToEnd computes the bounded metrics and the workload-specific ones from
// an untraced window.
func endToEnd(w *window, setups []float64) map[string]report {
	out := make(map[string]report)
	put := func(name, unit string, v float64, n int, ok bool) {
		out[name] = report{Value: v, Unit: unit, Samples: n, Printed: ok}
	}
	pct := func(name string, xs []float64, p float64) {
		v, ok := percentile(xs, p)
		put(name, "ms", v, len(xs), ok)
	}
	attempted, failed := w.counts()
	good := float64(attempted - failed)
	put("setup_s", "s", median(setups), len(setups), true)
	put("ops_per_s", "1/s", w.opsPerSecond(), attempted-failed, true)
	all := w.latencies(numKinds)
	pct("op_p50_ms", all, 50)
	pct("op_p99_ms", all, 99)
	for _, k := range []opKind{opSearch, opRoute} {
		pct(k.String()+"_p50_ms", w.latencies(k), 50)
		pct(k.String()+"_p99_ms", w.latencies(k), 99)
	}
	put("cpu_ms_per_op", "ms", (w.after.cpu-w.before.cpu).Seconds()*1e3/good, attempted-failed, good > 0)
	put("heap_live_mb", "MB", float64(w.heapLiveBytes)/(1<<20), 1, true)

	for _, k := range []opKind{opGeocode, opLocalize, opTile} {
		pct(k.String()+"_p50_ms", w.latencies(k), 50)
	}
	var visible []float64
	if w.churn != nil {
		visible = sorted(w.churn.visibleNS, 1e-6)
	}
	pct("write_visible_p50_ms", visible, 50)
	pct("write_visible_p95_ms", visible, 95)
	put("fail_ratio", "ratio", float64(failed)/float64(attempted), attempted, attempted > 0)
	return out
}
