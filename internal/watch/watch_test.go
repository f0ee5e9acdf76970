package watch_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"openflame/internal/geo"
	"openflame/internal/osm"
	"openflame/internal/search"
	"openflame/internal/watch"
	"openflame/internal/wire"
)

// fakeSource is an in-memory change log with controllable compaction and
// restarts.
type fakeSource struct {
	mu      sync.Mutex
	log     uint64
	head    uint64
	changes []watch.Change
	notify  chan struct{}
}

func newFakeSource() *fakeSource {
	return &fakeSource{log: 7, notify: make(chan struct{}, 1)}
}

func (f *fakeSource) LogID() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.log
}

func (f *fakeSource) ChangeSeq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.head
}

func (f *fakeSource) ChangesSince(since uint64) []watch.Change {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []watch.Change
	for _, c := range f.changes {
		if c.Seq > since {
			out = append(out, c)
		}
	}
	return out
}

func (f *fakeSource) Notify() <-chan struct{} { return f.notify }

func (f *fakeSource) add(pos geo.LatLng) {
	f.mu.Lock()
	f.head++
	f.changes = append(f.changes, watch.Change{Seq: f.head, Pos: pos})
	f.mu.Unlock()
	select {
	case f.notify <- struct{}{}:
	default:
	}
}

// compactBelow drops retained changes with Seq < keep, leaving a gap for
// cursors behind it.
func (f *fakeSource) compactBelow(keep uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.changes[:0]
	for _, c := range f.changes {
		if c.Seq >= keep {
			out = append(out, c)
		}
	}
	f.changes = out
}

// restart simulates an origin restart: a fresh log incarnation.
func (f *fakeSource) restart() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.log++
	f.head = 0
	f.changes = nil
}

// fakeWorld evaluates standing queries against a mutable result set,
// filtering by the query's region like the real search path.
type fakeWorld struct {
	mu      sync.Mutex
	results []search.Result
	evals   int
	src     *fakeSource // the log the answers are exact at
}

func (w *fakeWorld) set(rs ...search.Result) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.results = rs
}

func (w *fakeWorld) eval(ctx context.Context, req wire.SearchRequest) (wire.SearchResponse, uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.evals++
	seq := w.src.ChangeSeq()
	var out []search.Result
	for _, r := range w.results {
		if req.Near == nil || req.MaxDistanceMeters <= 0 ||
			geo.DistanceMeters(*req.Near, r.Position) <= req.MaxDistanceMeters {
			out = append(out, r)
		}
	}
	return wire.SearchResponse{Results: out}, seq, nil
}

var (
	center  = geo.LatLng{Lat: 40.44, Lng: -79.99}
	inside  = geo.LatLng{Lat: 40.441, Lng: -79.99} // ~110 m from center
	faraway = geo.LatLng{Lat: 41.44, Lng: -78.99}  // ~135 km from center
)

func res(id int64, name string, pos geo.LatLng) search.Result {
	return search.Result{NodeID: osm.NodeID(id), Name: name, Position: pos, Score: 1}
}

func regionQuery() wire.SearchRequest {
	near := center
	return wire.SearchRequest{Query: "shelf", Near: &near, MaxDistanceMeters: 1000, Limit: 10}
}

func newHub(src *fakeSource, w *fakeWorld, tweak func(*watch.Config)) *watch.Hub {
	w.src = src
	cfg := watch.Config{
		Source: src,
		Eval:   w.eval,
		Mark: func(seq uint64) wire.SessionMark {
			return wire.SessionMark{Origin: "test", Log: src.LogID(), Seq: seq}
		},
	}
	if tweak != nil {
		tweak(&cfg)
	}
	return watch.New(cfg)
}

func recvEvent(t *testing.T, sub *watch.Subscriber) wire.Event {
	t.Helper()
	select {
	case ev, ok := <-sub.Events():
		if !ok {
			t.Fatalf("subscription closed while waiting for an event")
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatalf("no event within 5s")
	}
	panic("unreachable")
}

// TestCoalescingPinned is the coalescing acceptance pin: K watchers of one
// region cost ONE subscribe-time evaluation, and a delta batch costs ONE
// change-log drain plus ONE query evaluation — every watcher then receives
// the shared event.
func TestCoalescingPinned(t *testing.T) {
	const K = 5
	src := newFakeSource()
	world := &fakeWorld{}
	world.set(res(1, "shelf a", inside))
	hub := newHub(src, world, nil)

	subs := make([]*watch.Subscriber, K)
	for i := range subs {
		sub, err := hub.Subscribe(context.Background(), wire.SubscribeRequest{Query: regionQuery()})
		if err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
		defer sub.Close()
		subs[i] = sub
		ev := recvEvent(t, sub)
		if ev.Type != wire.EventInit || len(ev.Results) != 1 || ev.Results[0].NodeID != 1 {
			t.Fatalf("sub %d first event = %+v", i, ev)
		}
		if ev.Session == nil {
			t.Fatalf("init event carries no session mark")
		}
	}
	before := hub.Stats()
	if before.Watchers != K || before.Groups != 1 {
		t.Fatalf("stats before write = %+v", before)
	}
	if before.InitEvals != 1 {
		t.Fatalf("K same-query subscribers cost %d init evaluations, want 1", before.InitEvals)
	}

	// One write inside the region: every watcher gets the same delta.
	world.set(res(1, "shelf a", inside), res(2, "shelf b", inside))
	src.add(inside)
	for i, sub := range subs {
		ev := recvEvent(t, sub)
		if ev.Type != wire.EventDelta || len(ev.Updated) != 1 || ev.Updated[0].NodeID != 2 || len(ev.Removed) != 0 {
			t.Fatalf("sub %d delta = %+v", i, ev)
		}
		if ev.Log != src.LogID() || ev.Seq != 1 {
			t.Fatalf("sub %d delta cursor = (%d, %d)", i, ev.Log, ev.Seq)
		}
	}
	after := hub.Stats()
	if got := after.Drains - before.Drains; got != 1 {
		t.Fatalf("delta batch cost %d drains, want 1", got)
	}
	if got := after.Evals - before.Evals; got != 1 {
		t.Fatalf("delta batch cost %d evaluations, want 1", got)
	}
}

// TestChangeOutsideRegionDoesNotEvaluate: geometry routing — a write far
// from every standing query advances cursors with a bare sync, without
// re-evaluating anything.
func TestChangeOutsideRegionDoesNotEvaluate(t *testing.T) {
	src := newFakeSource()
	world := &fakeWorld{}
	world.set(res(1, "shelf a", inside))
	hub := newHub(src, world, nil)

	sub, err := hub.Subscribe(context.Background(), wire.SubscribeRequest{Query: regionQuery()})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Close()
	recvEvent(t, sub) // init
	before := hub.Stats()

	src.add(faraway)
	ev := recvEvent(t, sub)
	if ev.Type != wire.EventSync || ev.Seq != 1 {
		t.Fatalf("far change produced %+v, want sync at seq 1", ev)
	}
	after := hub.Stats()
	if got := after.Evals - before.Evals; got != 0 {
		t.Fatalf("far change cost %d evaluations, want 0", got)
	}
}

// TestResumeSyncWhenCovered: a cursor whose span is retained and untouched
// by the query's region resumes with a bare sync — no re-snapshot.
func TestResumeSyncWhenCovered(t *testing.T) {
	src := newFakeSource()
	world := &fakeWorld{}
	world.set(res(1, "shelf a", inside))
	hub := newHub(src, world, nil)

	sub, err := hub.Subscribe(context.Background(), wire.SubscribeRequest{Query: regionQuery()})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	init := recvEvent(t, sub)
	sub.Close()

	// Changes after disconnect, none inside the region.
	src.add(faraway)
	src.add(faraway)

	sub2, err := hub.Subscribe(context.Background(), wire.SubscribeRequest{
		Query: regionQuery(), Log: init.Log, Seq: init.Seq,
	})
	if err != nil {
		t.Fatalf("resubscribe: %v", err)
	}
	defer sub2.Close()
	ev := recvEvent(t, sub2)
	if ev.Type != wire.EventSync {
		t.Fatalf("resume with covered cursor = %+v, want sync", ev)
	}
	if ev.Seq != src.ChangeSeq() {
		t.Fatalf("sync cursor = %d, want head %d", ev.Seq, src.ChangeSeq())
	}
}

// TestResumeInitOnAffectingChange: an in-region change in the replayed span
// forces a fresh snapshot — the cursor cannot be vouched for.
func TestResumeInitOnAffectingChange(t *testing.T) {
	src := newFakeSource()
	world := &fakeWorld{}
	world.set(res(1, "shelf a", inside))
	hub := newHub(src, world, nil)

	sub, err := hub.Subscribe(context.Background(), wire.SubscribeRequest{Query: regionQuery()})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	init := recvEvent(t, sub)
	sub.Close()

	world.set(res(1, "shelf a", inside), res(2, "shelf b", inside))
	src.add(inside)

	sub2, err := hub.Subscribe(context.Background(), wire.SubscribeRequest{
		Query: regionQuery(), Log: init.Log, Seq: init.Seq,
	})
	if err != nil {
		t.Fatalf("resubscribe: %v", err)
	}
	defer sub2.Close()
	ev := recvEvent(t, sub2)
	if ev.Type != wire.EventInit || len(ev.Results) != 2 {
		t.Fatalf("resume across affecting change = %+v, want 2-result init", ev)
	}
}

// TestResumeInitOnCompactionGap: a cursor behind the retained span must
// re-snapshot even when no surviving change affects the query — the lost
// span is unroutable, and sync would silently skip it.
func TestResumeInitOnCompactionGap(t *testing.T) {
	src := newFakeSource()
	world := &fakeWorld{}
	world.set(res(1, "shelf a", inside))
	hub := newHub(src, world, nil)

	sub, err := hub.Subscribe(context.Background(), wire.SubscribeRequest{Query: regionQuery()})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	init := recvEvent(t, sub)
	sub.Close()

	src.add(faraway)
	src.add(faraway)
	src.add(faraway)
	src.compactBelow(3) // seqs 1-2 are gone; cursor 0 has a gap

	sub2, err := hub.Subscribe(context.Background(), wire.SubscribeRequest{
		Query: regionQuery(), Log: init.Log, Seq: init.Seq,
	})
	if err != nil {
		t.Fatalf("resubscribe: %v", err)
	}
	defer sub2.Close()
	if ev := recvEvent(t, sub2); ev.Type != wire.EventInit {
		t.Fatalf("resume across compaction gap = %+v, want init", ev)
	}
}

// TestResumeInitOnDeadLog: a restarted origin's new log incarnation makes
// every old cursor unvouchable — resume must re-snapshot, never sync.
func TestResumeInitOnDeadLog(t *testing.T) {
	src := newFakeSource()
	world := &fakeWorld{}
	world.set(res(1, "shelf a", inside))
	hub := newHub(src, world, nil)

	sub, err := hub.Subscribe(context.Background(), wire.SubscribeRequest{Query: regionQuery()})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	init := recvEvent(t, sub)
	sub.Close()

	src.restart()

	sub2, err := hub.Subscribe(context.Background(), wire.SubscribeRequest{
		Query: regionQuery(), Log: init.Log, Seq: init.Seq,
	})
	if err != nil {
		t.Fatalf("resubscribe: %v", err)
	}
	defer sub2.Close()
	ev := recvEvent(t, sub2)
	if ev.Type != wire.EventInit {
		t.Fatalf("resume against dead log = %+v, want init", ev)
	}
	if ev.Log != src.LogID() {
		t.Fatalf("init carries log %d, want the new incarnation %d", ev.Log, src.LogID())
	}
}

// TestSlowSubscriberDropped: a watcher that stops draining is evicted (its
// channel closes) instead of blocking the hub or growing without bound.
func TestSlowSubscriberDropped(t *testing.T) {
	src := newFakeSource()
	world := &fakeWorld{}
	world.set(res(1, "shelf a", inside))
	hub := newHub(src, world, func(c *watch.Config) { c.Buffer = 1 })

	sub, err := hub.Subscribe(context.Background(), wire.SubscribeRequest{Query: regionQuery()})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	// The queued init fills the 1-slot buffer; the next delta overflows it.
	world.set(res(1, "shelf a", inside), res(2, "shelf b", inside))
	src.add(inside)

	deadline := time.After(5 * time.Second)
	for {
		st := hub.Stats()
		if st.Dropped == 1 && st.Watchers == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("slow subscriber not dropped: stats %+v", st)
		case <-time.After(5 * time.Millisecond):
		}
	}
	// The channel still delivers what was queued before the drop, then
	// closes.
	if ev := recvEvent(t, sub); ev.Type != wire.EventInit {
		t.Fatalf("queued event = %+v, want init", ev)
	}
	if _, ok := <-sub.Events(); ok {
		t.Fatalf("dropped subscriber's channel did not close")
	}
}

// TestMaxWatchersSheds: the subscription bound refuses with ErrOverloaded
// and frees up when a watcher leaves.
func TestMaxWatchersSheds(t *testing.T) {
	src := newFakeSource()
	world := &fakeWorld{}
	world.set(res(1, "shelf a", inside))
	hub := newHub(src, world, func(c *watch.Config) { c.MaxWatchers = 2 })

	var subs []*watch.Subscriber
	for i := 0; i < 2; i++ {
		sub, err := hub.Subscribe(context.Background(), wire.SubscribeRequest{Query: regionQuery()})
		if err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
		subs = append(subs, sub)
	}
	if _, err := hub.Subscribe(context.Background(), wire.SubscribeRequest{Query: regionQuery()}); !errors.Is(err, watch.ErrOverloaded) {
		t.Fatalf("third subscription = %v, want ErrOverloaded", err)
	}
	subs[0].Close()
	sub, err := hub.Subscribe(context.Background(), wire.SubscribeRequest{Query: regionQuery()})
	if err != nil {
		t.Fatalf("subscribe after close: %v", err)
	}
	sub.Close()
	subs[1].Close()
	if st := hub.Stats(); st.Watchers != 0 || st.Groups != 0 {
		t.Fatalf("stats after all closed = %+v", st)
	}
}

// TestDistinctQueriesEvaluateIndependently: two groups, one in-region
// change that touches both → one drain, two evaluations, each group's
// subscribers see their own delta.
func TestDistinctQueriesEvaluateIndependently(t *testing.T) {
	src := newFakeSource()
	world := &fakeWorld{}
	world.set(res(1, "shelf a", inside))
	hub := newHub(src, world, nil)

	q2 := regionQuery()
	q2.Limit = 5 // different canonical query → its own group

	subA, err := hub.Subscribe(context.Background(), wire.SubscribeRequest{Query: regionQuery()})
	if err != nil {
		t.Fatalf("subscribe A: %v", err)
	}
	defer subA.Close()
	subB, err := hub.Subscribe(context.Background(), wire.SubscribeRequest{Query: q2})
	if err != nil {
		t.Fatalf("subscribe B: %v", err)
	}
	defer subB.Close()
	recvEvent(t, subA)
	recvEvent(t, subB)
	before := hub.Stats()
	if before.Groups != 2 {
		t.Fatalf("groups = %d, want 2", before.Groups)
	}

	world.set(res(1, "shelf a", inside), res(2, "shelf b", inside))
	src.add(inside)
	for _, sub := range []*watch.Subscriber{subA, subB} {
		if ev := recvEvent(t, sub); ev.Type != wire.EventDelta {
			t.Fatalf("event = %+v, want delta", ev)
		}
	}
	after := hub.Stats()
	if got := after.Drains - before.Drains; got != 1 {
		t.Fatalf("batch cost %d drains, want 1", got)
	}
	if got := after.Evals - before.Evals; got != 2 {
		t.Fatalf("batch cost %d evaluations, want 2 (one per affected group)", got)
	}
}

// TestConcurrentSubscribesEvaluateOnce: every evaluation reports the
// sequence its answer is exact at, so a subscribe evaluates its snapshot
// exactly once however fast the log moves — N concurrent subscribes to N
// distinct queries during continuous writes cost exactly N evaluations.
func TestConcurrentSubscribesEvaluateOnce(t *testing.T) {
	src := newFakeSource()
	world := &fakeWorld{}
	world.set(res(1, "shelf a", inside))
	hub := newHub(src, world, nil)

	stop := make(chan struct{})
	writer := make(chan struct{})
	go func() {
		defer close(writer)
		for {
			select {
			case <-stop:
				return
			default:
				src.add(inside)
			}
		}
	}()
	const n = 16
	subs := make([]*watch.Subscriber, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := regionQuery()
			q.Limit = i + 1 // a distinct canonical query per subscriber
			subs[i], errs[i] = hub.Subscribe(context.Background(), wire.SubscribeRequest{Query: q})
		}(i)
	}
	wg.Wait()
	close(stop)
	<-writer
	for i, err := range errs {
		if err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
		defer subs[i].Close()
		if ev := recvEvent(t, subs[i]); ev.Type != wire.EventInit || ev.Session == nil || ev.Session.Seq != ev.Seq {
			t.Fatalf("subscriber %d first event = %+v, want an init marked at its cursor", i, ev)
		}
	}
	if got := hub.Stats().InitEvals; got != n {
		t.Fatalf("%d concurrent subscribes cost %d init evaluations, want %d", n, got, n)
	}
}

// TestJoinDuringDrainGetsMissedDelta is the mid-pass join regression. A
// drain pass collects its groups, then blocks evaluating one of them; a
// new subscriber's snapshot was taken just before an affecting write that
// pass is handling, and its group joins while the pass is still
// evaluating. The pass never checked the newcomer against that write, so
// it must not advance the newcomer's cursor past it: with no further
// write, the subscriber still receives the delta.
func TestJoinDuringDrainGetsMissedDelta(t *testing.T) {
	src := newFakeSource()
	world := &fakeWorld{}
	world.set(res(1, "shelf a", inside))

	type gate struct{ entered, release chan struct{} }
	var mu sync.Mutex
	gates := map[int]*gate{}
	arm := func(limit int) *gate {
		g := &gate{entered: make(chan struct{}), release: make(chan struct{})}
		mu.Lock()
		gates[limit] = g
		mu.Unlock()
		return g
	}
	// The evaluator answers, then blocks once for a query whose gate is
	// armed: the answer stays exact at the sequence it read.
	hub := newHub(src, world, func(cfg *watch.Config) {
		cfg.Eval = func(ctx context.Context, req wire.SearchRequest) (wire.SearchResponse, uint64, error) {
			resp, seq, err := world.eval(ctx, req)
			mu.Lock()
			g := gates[req.Limit]
			delete(gates, req.Limit)
			mu.Unlock()
			if g != nil {
				close(g.entered)
				<-g.release
			}
			return resp, seq, err
		}
	})
	qA, qB := regionQuery(), regionQuery()
	qA.Limit, qB.Limit = 1, 2 // two groups

	subA, err := hub.Subscribe(context.Background(), wire.SubscribeRequest{Query: qA})
	if err != nil {
		t.Fatal(err)
	}
	defer subA.Close()
	recvEvent(t, subA)

	// B's snapshot is taken at seq 0, and B blocks before joining.
	gB := arm(2)
	var subB *watch.Subscriber
	joined := make(chan error)
	go func() {
		var err error
		subB, err = hub.Subscribe(context.Background(), wire.SubscribeRequest{Query: qB})
		joined <- err
	}()
	<-gB.entered

	// The affecting write; the pass it wakes collects only A and blocks
	// evaluating it.
	gA := arm(1)
	world.set(res(1, "shelf a", inside), res(2, "shelf b", inside))
	src.add(inside)
	<-gA.entered

	// B joins behind the head while the pass is mid-evaluation.
	close(gB.release)
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
	defer subB.Close()
	close(gA.release)

	if ev := recvEvent(t, subB); ev.Type != wire.EventInit || ev.Seq != 0 || len(ev.Results) != 1 {
		t.Fatalf("first event = %+v, want the init snapshot at seq 0", ev)
	}
	ev := recvEvent(t, subB)
	if ev.Type != wire.EventDelta || ev.Seq != 1 || len(ev.Updated) != 1 || ev.Updated[0].NodeID != 2 {
		t.Fatalf("second event = %+v, want the delta adding node 2 at seq 1", ev)
	}
}
