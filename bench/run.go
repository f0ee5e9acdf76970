package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"openflame/internal/client"
	"openflame/internal/core"
)

const (
	// warmupOpsPerCaller is the fixed-count warm-up billed to setup_s:
	// fixed count, not fixed time, so work a change defers into first calls
	// still shows.
	warmupOpsPerCaller = 750
	// setupsPerRun is how many times a run boots and warms the federation;
	// setup_s is the median.
	setupsPerRun = 3

	// churn_watch's open-loop schedule.
	writeInterval = 25 * time.Millisecond // 40 writes/s
	writesPerSync = 10                    // SyncReplicas every 250 ms
	watchedStores = 2                     // singleton stores 0 and 1
	firstReplica  = 4                     // stores 4.. are 2-replica sets
)

// sample is one completed op of the measured window.
type sample struct {
	kind opKind
	ok   bool
	end  int64 // ns since window start
	lat  int64 // ns
}

// caller is one closed-loop client: it sends its next op only when the
// previous one has answered.
type caller struct {
	clientSet
	opts []client.CallOption
	rng  *rand.Rand
	gen  generator

	samples []sample
	genNS   int64 // spent drawing ops, the benchmark's own time
}

func newCallers(d *deployment, wl workload, tb *tables) []*caller {
	cs := make([]*caller, wl.callers)
	for k := range cs {
		cs[k] = &caller{clientSet: d.newClient(), gen: wl.gen(tb)}
		if wl.churn {
			cs[k].opts = []client.CallOption{client.WithSession(client.NewSession())}
		}
	}
	return cs
}

// reseed starts every caller's request stream over: caller k draws from
// seed*2+k.
func reseed(cs []*caller, seed int64) {
	for k, cl := range cs {
		cl.rng = rand.New(rand.NewSource(seed*2 + int64(k)))
	}
}

// runCount drives every caller for n ops each and returns how many failed.
func runCount(ctx context.Context, cs []*caller, n int) int {
	var failed atomic.Int64
	var wg sync.WaitGroup
	for _, cl := range cs {
		wg.Add(1)
		go func(cl *caller) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if !exec(ctx, cl.c, cl.gen(cl.rng), cl.opts...).ok() {
					failed.Add(1)
				}
			}
		}(cl)
	}
	wg.Wait()
	return int(failed.Load())
}

// runWindow drives every caller closed-loop for d and fills their samples.
// traced marks each op with a span.
func runWindow(ctx context.Context, cs []*caller, d time.Duration, tr *tracer, traced bool) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, cl := range cs {
		cl.samples, cl.genNS = cl.samples[:0], 0
		wg.Add(1)
		go func(cl *caller) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if t0.Sub(start) >= d {
					return
				}
				o := cl.gen(cl.rng)
				t1 := time.Now()
				cl.genNS += int64(t1.Sub(t0))
				octx := ctx
				var s span
				if traced {
					s = span{ID: tr.newID(), Name: spanOp, Detail: o.kind.String(), Start: tr.now()}
					s.OpID = s.ID
					octx = withOp(ctx, s.ID)
				}
				a := exec(octx, cl.c, o, cl.opts...)
				t2 := time.Now()
				if traced {
					s.End = tr.now()
					tr.add(s)
				}
				cl.samples = append(cl.samples, sample{kind: o.kind, ok: a.ok(), end: int64(t2.Sub(start)), lat: int64(t2.Sub(t1))})
			}
		}(cl)
	}
	wg.Wait()
}

// --- churn ----------------------------------------------------------------

// churn is churn_watch's write side: one open-loop writer that also drives
// anti-entropy on its own schedule, and the watchers that time each write
// from ApplyInventoryUpdate to its delta on a WatchV2 channel.
type churn struct {
	d  *deployment
	tb *tables

	mu     sync.Mutex
	stamps map[int]time.Time // write number -> time ApplyInventoryUpdate was called

	visibleNS []int64 // write -> delta, watched stores only
	applyNS   []int64 // ApplyInventoryUpdate itself
	syncNS    []int64 // one SyncReplicas round
	lagNS     []int64 // how late each write started against its schedule
	writes    int
	applied   int // changes SyncReplicas reported applied
}

// write applies write number n: a stock count on one shelf. Half go to the
// watched singletons, half to replica r0 of a replicated store, whose
// sibling learns of it at the next sync.
func (ch *churn) write(r *rand.Rand, n int) error {
	si := r.Intn(watchedStores)
	if r.Intn(2) == 1 {
		si = firstReplica + r.Intn(len(ch.tb.stores)-firstReplica)
	}
	srv := ch.d.storeHandles[si][0].Server
	id := ch.tb.stores[si].shelves[r.Intn(len(ch.tb.stores[si].shelves))]
	node := srv.Store().Map().Node(id)
	if node == nil {
		return fmt.Errorf("write %d: store %d has no node %d", n, si, id)
	}
	tags := node.Tags.Clone()
	tags["stock"] = strconv.Itoa(n)
	t0 := time.Now()
	if si < watchedStores {
		ch.mu.Lock()
		ch.stamps[n] = t0
		ch.mu.Unlock()
	}
	if !srv.ApplyInventoryUpdate(id, tags) {
		return fmt.Errorf("write %d: store %d refused the update", n, si)
	}
	ch.applyNS = append(ch.applyNS, int64(time.Since(t0)))
	ch.writes++
	return nil
}

// runWriter issues writes on a fixed schedule until ctx ends. It is open
// loop: a write that starts late does not move the ones after it, and the
// lateness is recorded.
func (ch *churn) runWriter(ctx context.Context, seed int64) error {
	r := rand.New(rand.NewSource(seed))
	start := time.Now()
	for n := 1; ; n++ {
		due := start.Add(time.Duration(n) * writeInterval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(wait):
			}
		} else if ctx.Err() != nil {
			return nil
		}
		ch.lagNS = append(ch.lagNS, int64(time.Since(due)))
		if err := ch.write(r, n); err != nil {
			return err
		}
		if n%writesPerSync == 0 {
			t0 := time.Now()
			applied, err := ch.d.fed.SyncReplicas(ctx)
			if err != nil && ctx.Err() == nil {
				return fmt.Errorf("sync after write %d: %w", n, err)
			}
			ch.syncNS = append(ch.syncNS, int64(time.Since(t0)))
			ch.applied += applied
		}
	}
}

// watch opens a standing query over store si's shelves and records, for
// every stock count it sees for the first time, how long the write took to
// arrive. It returns once the init snapshot is in, with a stop function.
func (ch *churn) watch(ctx context.Context, si int) (stop func(), err error) {
	c := ch.d.newClient().c
	// Just the store and whatever shares its cells: the default 1 km cap
	// would hold a stream open to half the mall.
	c.SearchRadiusMeters = 60
	w, err := c.WatchV2(ctx, "shelf", ch.tb.stores[si].entrance, 20)
	if err != nil {
		return nil, err
	}
	inited := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		seen := 0
		for ev := range w.Events() {
			now := time.Now()
			if ev.Init {
				if seen++; seen == 1 {
					close(inited)
				}
				continue
			}
			for _, res := range ev.Updated {
				n, err := strconv.Atoi(res.Tags["stock"])
				if err != nil {
					continue
				}
				ch.mu.Lock()
				if t0, ok := ch.stamps[n]; ok {
					delete(ch.stamps, n)
					ch.visibleNS = append(ch.visibleNS, int64(now.Sub(t0)))
				}
				ch.mu.Unlock()
			}
		}
	}()
	select {
	case <-inited:
	case <-time.After(5 * time.Second):
		w.Stop()
		<-done
		return nil, fmt.Errorf("watch on store %d: no init within 5 s", si)
	}
	return func() { w.Stop(); <-done }, nil
}

// --- counters ---------------------------------------------------------------

// counters is every number the benchmark reads off the program's public
// Stats accessors, summed over servers or callers. It is read at the same
// boundaries as the spans: before and after a window.
type counters struct {
	requests                                          int64 // client.RequestCount
	retries                                           int64
	dnsHits, dnsMisses, dnsUpstream                   int64
	cacheHits, cacheMisses, cacheEvicted, cachePurged int64
	queued, shed                                      int64
	watchEvals, watchEvents, watchDropped             uint64
	mallocs, allocBytes                               uint64
	cpu                                               time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readCounters(servers []*core.ServerHandle, cs []*caller) counters {
	var c counters
	for _, cl := range cs {
		c.requests += cl.c.RequestCount()
		c.retries += cl.c.Resilience.Stats().Retries
		st := cl.res.Stats()
		c.dnsHits += st.CacheHits
		c.dnsMisses += st.CacheMisses
		c.dnsUpstream += st.UpstreamQueries
	}
	for _, h := range servers {
		q := h.Server.QueryCacheStats()
		c.cacheHits += q.Hits
		c.cacheMisses += q.Misses
		c.cacheEvicted += q.Evicted
		c.cachePurged += q.Purged
		a := h.Server.AdmissionStats()
		c.queued += a.Queued
		c.shed += a.Shed()
		w := h.Server.WatchStats()
		c.watchEvals += w.Evals
		c.watchEvents += w.Events
		c.watchDropped += w.Dropped
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc
	c.cpu = cpuTime()
	return c
}

// --- one measured window --------------------------------------------------

// window is everything one measured window produced.
type window struct {
	dur           time.Duration
	samples       []sample
	before, after counters
	heapLiveBytes uint64
	genShare      float64 // largest share of the window a caller spent drawing ops
	churn         *churn
}

// measure runs one window of the workload on a warmed deployment.
func measure(ctx context.Context, d *deployment, wl workload, tb *tables, cs []*caller, seed int64, dur time.Duration, traced bool) (*window, error) {
	w := &window{dur: dur}
	var stops []func()
	var writerErr error
	var writerDone chan struct{}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if wl.churn {
		w.churn = &churn{d: d, tb: tb, stamps: make(map[int]time.Time)}
		for si := 0; si < watchedStores; si++ {
			stop, err := w.churn.watch(wctx, si)
			if err != nil {
				for _, s := range stops {
					s()
				}
				return nil, err
			}
			stops = append(stops, stop)
		}
	}
	d.tr.on.Store(traced)
	w.before = readCounters(d.fed.Servers, cs)
	if wl.churn {
		writerDone = make(chan struct{})
		go func() {
			defer close(writerDone)
			writerErr = w.churn.runWriter(wctx, seed*2+int64(len(cs)))
		}()
	}
	runWindow(ctx, cs, dur, d.tr, traced)
	cancel()
	if writerDone != nil {
		<-writerDone
	}
	w.after = readCounters(d.fed.Servers, cs)
	d.tr.on.Store(false)
	for _, s := range stops {
		s()
	}
	if writerErr != nil {
		return nil, writerErr
	}
	for _, cl := range cs {
		w.samples = append(w.samples, cl.samples...)
		if share := float64(cl.genNS) / float64(dur); share > w.genShare {
			w.genShare = share
		}
	}
	if w.genShare > 0.05 {
		return nil, fmt.Errorf("a caller spent %.1f %% of the window constructing requests; the numbers would be the benchmark's own", 100*w.genShare)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.heapLiveBytes = ms.HeapAlloc
	return w, nil
}

// --- set-up -----------------------------------------------------------------

// setup is one boot plus warm-up, timed.
type setup struct {
	d       *deployment
	callers []*caller
	warmupS float64
}

func (s setup) seconds() float64 { return s.d.boot.total() + s.warmupS }

// bootAndWarm boots the federation from the fixture and runs the fixed
// warm-up through freshly made callers. The warm-up draws from its own seed
// stream, so the window's requests are not the ones just warmed.
func bootAndWarm(ctx context.Context, fx *fixture, wl workload, tb *tables, seed int64, ops int) (setup, error) {
	d, err := deploy(fx, newTracer())
	if err != nil {
		return setup{}, err
	}
	cs := newCallers(d, wl, tb)
	reseed(cs, seed+1<<20)
	t0 := time.Now()
	if failed := runCount(ctx, cs, ops); failed > 0 {
		d.close()
		return setup{}, fmt.Errorf("%d of %d warm-up ops failed", failed, ops*len(cs))
	}
	warmupS := time.Since(t0).Seconds()
	reseed(cs, seed)
	return setup{d: d, callers: cs, warmupS: warmupS}, nil
}

// settle waits for goroutines a closed deployment still owns to exit, so a
// set-up's listeners, watch streams and syncers cannot run into the next
// one's measurements. It reports how many goroutines remain above base.
func settle(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		extra := runtime.NumGoroutine() - base
		if extra <= 0 || time.Now().After(deadline) {
			return extra
		}
		time.Sleep(10 * time.Millisecond)
	}
}
