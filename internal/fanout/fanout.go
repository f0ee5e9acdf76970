// Package fanout provides the concurrency primitives shared by the client
// and discovery layers: a context-aware bounded worker pool for fanning one
// logical request out across federation members, and a singleflight group
// that coalesces concurrent duplicate lookups (shared-ancestor DNS cells,
// repeated /info fetches) into one in-flight call.
//
// The federation makes the *client* the aggregation point (§5.2): one
// search or route touches every map server discovered in a region, so
// end-to-end latency must be O(slowest server), not O(sum of servers).
package fanout

import (
	"context"
	"fmt"
	"sync"
)

// DefaultLimit is the worker bound used when a caller passes limit <= 0.
const DefaultLimit = 8

// ForEach runs fn(ctx, i) for i in [0, n) on at most limit concurrent
// workers and waits for all started calls to finish. When limit <= 0,
// DefaultLimit is used; limit == 1 reproduces the sequential loop exactly
// (in-order, one at a time). Once ctx is cancelled no further indices are
// started; calls already in flight are expected to observe ctx themselves.
//
// fn must record its own result (typically into a slot of a pre-sized
// slice indexed by i, which needs no locking); ForEach deliberately has no
// error return because federation fan-outs are first-error-tolerant — a
// slow or failed member is skipped, not waited on.
func ForEach(ctx context.Context, n, limit int, fn func(ctx context.Context, i int)) {
	if n <= 0 {
		return
	}
	if limit <= 0 {
		limit = DefaultLimit
	}
	if limit > n {
		limit = n
	}
	if limit == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(ctx, i)
		}
		return
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, limit)
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() {
				<-sem
				wg.Done()
			}()
			fn(ctx, i)
		}(i)
	}
	wg.Wait()
}

// Group coalesces concurrent calls with the same key into a single
// execution whose result every caller shares (the classic singleflight
// pattern). The zero value is ready to use.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// DoCtx executes fn once per key among concurrent callers: the first caller
// runs fn, later callers with the same key block until it finishes and
// receive the same value and error. Once the call completes the key is
// forgotten, so sequential calls re-execute (callers wanting memoization
// layer a cache above, as discovery.Client does).
//
// Followers detach: a caller that joins an in-flight call and whose ctx is
// cancelled before the leader finishes returns ctx.Err() immediately
// instead of waiting — the leader is unaffected and completes normally (its
// result still lands wherever the leader puts it, e.g. a cache above this
// group). The LEADER's fn is never interrupted here: an abandoned leader
// must finish for the followers and for the cache; fn observes cancellation
// itself if it wants to stop early.
func (g *Group[V]) DoCtx(ctx context.Context, key string, fn func() (V, error)) (V, error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*call[V])
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	c := &call[V]{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	// Unregister and release followers even if fn panics — otherwise the
	// key stays registered and every future caller blocks forever. The
	// panic propagates on the leader; followers receive an error.
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("fanout: coalesced call panicked: %v", r)
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
			close(c.done)
			panic(r)
		}
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	return c.val, c.err
}
