package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// config is one workload run's shape.
type config struct {
	seed   int64
	window time.Duration // untraced window: every end-to-end number
	traced time.Duration // traced window after it; 0 = none
	setups int
	warmup int    // warm-up ops per caller
	oracle int    // oracle samples per service
	outDir string // fixtures (removed), results and traces
}

// result is everything one workload run reports.
type result struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	WindowSeconds  float64            `json:"window_s"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	OracleChecked  int                `json:"oracle_checked"`
	OracleRejected int                `json:"oracle_rejected"`
	Digest         string             `json:"result_digest"`
	SetupSeconds   []float64          `json:"setup_s_each"`
	EndToEnd       map[string]report  `json:"end_to_end"`
	PerLayer       map[string]float64 `json:"per_layer,omitempty"`
}

// traceFile is bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Budget   map[string]kindBudget `json:"budget_by_op_kind"`
	Layers   map[string]float64    `json:"per_layer"`
	Spans    []span                `json:"spans"`
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runWorkload boots, checks, measures and (optionally) traces one workload.
func runWorkload(ctx context.Context, wl workload, cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "fixture-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fx, err := newFixture(wl.world, dir)
	if err != nil {
		return nil, err
	}
	tb, err := newTables(fx)
	if err != nil {
		return nil, err
	}
	or, err := newOracle(fx)
	if err != nil {
		return nil, err
	}

	res := &result{Workload: wl.name, Seed: cfg.seed, WindowSeconds: cfg.window.Seconds()}
	base := runtime.NumGoroutine()
	var last setup
	for i := 0; i < cfg.setups; i++ {
		s, err := bootAndWarm(ctx, fx, wl, tb, cfg.seed, cfg.warmup)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		res.SetupSeconds = append(res.SetupSeconds, s.seconds())
		if i == cfg.setups-1 {
			last = s
			break
		}
		if err := s.shutdown(base); err != nil {
			return nil, err
		}
	}
	d := last.d
	defer d.close() // for the error returns; closing twice is harmless

	// The oracle sample runs on its own client and its own seed stream, so
	// it neither warms the callers' caches nor consumes their requests.
	oc := d.newClient()
	var first error
	var digest uint64
	res.OracleChecked, res.OracleRejected, first, digest = or.sample(ctx, oc.c, wl.gen(tb), cfg.seed+2<<20, cfg.oracle)
	res.Digest = fmt.Sprintf("%016x", digest)
	if res.OracleRejected > 0 {
		return nil, fmt.Errorf("oracle rejected %d of %d answers, first: %v", res.OracleRejected, res.OracleChecked, first)
	}
	or = nil // the merged map must not sit in heap_live_mb

	w, err := measure(ctx, d, wl, tb, last.callers, cfg.seed, cfg.window, false)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = w.counts()
	res.EndToEnd = endToEnd(w, res.SetupSeconds)

	if cfg.traced > 0 {
		gc0 := gcCPUSeconds()
		tw, err := measure(ctx, d, wl, tb, last.callers, cfg.seed, cfg.traced, true)
		if err != nil {
			return nil, err
		}
		gcShare := (gcCPUSeconds() - gc0) / (tw.after.cpu - tw.before.cpu).Seconds()
		spans, recorded := d.tr.take()
		layers, budget, err := layerMetrics(fx, last, w, tw, spans, recorded)
		if err != nil {
			return nil, err
		}
		layers["proc.gc_cpu_fraction"] = gcShare
		for _, s := range workloadSpecs {
			layers[s.Name] = res.EndToEnd[s.Name].Value
		}
		res.PerLayer = layers
		tf := traceFile{Workload: wl.name, Seed: cfg.seed, Budget: budget, Layers: layers, Spans: spans}
		if err := writeJSON(filepath.Join(cfg.outDir, "trace-"+wl.name+".json"), tf); err != nil {
			return nil, err
		}
	}
	return res, last.shutdown(base)
}

// shutdown closes the set-up's deployment and fails if it left anything
// running that could take CPU from what is measured next.
func (s setup) shutdown(base int) error {
	s.d.close()
	if extra := settle(base); extra > 0 {
		return fmt.Errorf("%d goroutines outlived the federation's Close", extra)
	}
	return nil
}

func writeJSON(path string, v interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// layerMetrics assembles every per-layer number of a traced run: boot
// timings, counter deltas over the traced window, span statistics, the
// direct-call replay and the single-threaded compute probes.
func layerMetrics(fx *fixture, s setup, untraced, tw *window, spans []span, recorded map[string][]recordedReq) (map[string]float64, map[string]kindBudget, error) {
	out := make(map[string]float64, len(layerSpecs))
	boot := s.d.boot
	out["osm.snapshot_load_s"] = boot.snapshotLoad
	out["store.attach_s"] = boot.storeAttach
	out["mapserver.new_s"] = boot.serverNew
	out["graph.build_ch_s"] = boot.buildCH
	out["discovery.register_s"] = boot.register
	out["setup.first_200_s"] = boot.first200
	out["setup.warmup_s"] = s.warmupS
	out["worldgen.gen_s"] = fx.genS
	out["osm.snapshot_write_s"] = fx.snapshotWriteS

	attempted, _ := tw.counts()
	ops := float64(attempted)
	kop := ops / 1000
	b, a := tw.before, tw.after
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	out["client.http_reqs_per_op"] = float64(a.requests-b.requests) / ops
	out["client.bytes_in_per_op"] = float64(s.d.tr.bytesIn.Load()) / ops
	out["client.bytes_out_per_op"] = float64(s.d.tr.bytesOut.Load()) / ops
	out["client.retries_per_kop"] = float64(a.retries-b.retries) / kop
	out["dns.exchanges_per_kop"] = float64(a.dnsUpstream-b.dnsUpstream) / kop
	dnsHits, dnsMisses := float64(a.dnsHits-b.dnsHits), float64(a.dnsMisses-b.dnsMisses)
	out["dns.cache_hit_ratio"] = ratio(dnsHits, dnsHits+dnsMisses)
	hits, misses := float64(a.cacheHits-b.cacheHits), float64(a.cacheMisses-b.cacheMisses)
	out["mapserver.cache_hit_ratio"] = ratio(hits, hits+misses)
	out["mapserver.cache_evictions_per_kop"] = float64(a.cacheEvicted-b.cacheEvicted) / kop
	out["admission.queued_per_kop"] = float64(a.queued-b.queued) / kop
	out["admission.shed_per_kop"] = float64(a.shed-b.shed) / kop
	out["proc.allocs_per_op"] = float64(a.mallocs-b.mallocs) / ops
	out["proc.alloc_bytes_per_op"] = float64(a.allocBytes-b.allocBytes) / ops
	out["trace.overhead_ratio"] = ratio(tw.opsPerSecond(), untraced.opsPerSecond())

	budget := spanMetrics(spans, out)
	perSvc := make(map[string]int)
	for _, sp := range spans {
		if sp.Name == spanHandler {
			perSvc[serviceOf(sp.Detail)]++
		}
	}
	dec := make(map[string][]decoded)
	for _, svc := range services {
		d, err := decode(svc, recorded[svc])
		if err != nil {
			return nil, nil, err
		}
		dec[svc] = d
		dp := p50(direct(d))
		out["mapserver."+svc+".direct_us_p50"] = dp
		out["mapserver."+svc+".envelope_us_p50"] = 0
		if len(d) > 0 {
			out["mapserver."+svc+".envelope_us_p50"] = out["mapserver."+svc+".handler_us_p50"] - dp
		}
		out["mapserver."+svc+".reqs_per_kop"] = float64(perSvc[svc]) / kop
	}
	probes(dec, out)
	discoveryProbe(s.callers[0], out)

	for _, name := range []string{"store.apply_us_p50", "watch.evals_per_write", "watch.events_per_write",
		"mapserver.sync_round_ms_p50", "mapserver.sync_applied_per_s", "loadgen.writer_lag_ms_p99",
		"mapserver.cache_purged_per_write"} {
		out[name] = 0
	}
	out["watch.dropped"] = float64(a.watchDropped - b.watchDropped)
	if ch := tw.churn; ch != nil && ch.writes > 0 {
		writes := float64(ch.writes)
		out["store.apply_us_p50"] = p50(sorted(ch.applyNS, 1e-3))
		out["watch.evals_per_write"] = float64(a.watchEvals-b.watchEvals) / writes
		out["watch.events_per_write"] = float64(a.watchEvents-b.watchEvents) / writes
		out["mapserver.sync_round_ms_p50"] = p50(sorted(ch.syncNS, 1e-6))
		out["mapserver.sync_applied_per_s"] = float64(ch.applied) / tw.dur.Seconds()
		out["loadgen.writer_lag_ms_p99"], _ = percentile(sorted(ch.lagNS, 1e-6), 99)
		out["mapserver.cache_purged_per_write"] = float64(a.cachePurged-b.cachePurged) / writes
	}
	return out, budget, nil
}
