package mapserver

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"openflame/internal/fanout"
	"openflame/internal/store"
	"openflame/internal/wire"
)

// queryCache memoizes service results keyed by (service, request,
// generation). Because the map generation is part of the key, a mutation
// never serves a stale hit: the bumped generation simply misses, and dead
// entries from prior generations age out of the LRU (or are purged eagerly
// by writes). A singleflight group collapses concurrent identical queries
// so a hot query computes once per generation, not once per caller.
//
// Cached values are shared between callers; results obtained through the
// cache must be treated as immutable.
type queryCache struct {
	mu      sync.Mutex
	max     int
	entries map[qcKey]*list.Element
	lru     *list.List // front = most recently used; values are *qcEntry
	flight  fanout.Group[interface{}]

	hits, misses, evicted, purged int64
}

type qcKey struct {
	gen uint64
	key string
}

type qcEntry struct {
	k qcKey
	v interface{}
}

func newQueryCache(max int) *queryCache {
	return &queryCache{
		max:     max,
		entries: make(map[qcKey]*list.Element),
		lru:     list.New(),
	}
}

func (c *queryCache) get(k qcKey) (interface{}, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return el.Value.(*qcEntry).v, true
	}
	c.misses++
	return nil, false
}

// peek is get without touching the hit/miss counters — used for the
// in-flight double-check so one logical miss is not counted twice.
func (c *queryCache) peek(k qcKey) (interface{}, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*qcEntry).v, true
	}
	return nil, false
}

func (c *queryCache) put(k qcKey, v interface{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*qcEntry).v = v
		c.lru.MoveToFront(el)
		return
	}
	c.entries[k] = c.lru.PushFront(&qcEntry{k: k, v: v})
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*qcEntry).k)
		c.evicted++
	}
}

// purgeBefore drops every entry from a generation older than gen — the
// eager half of invalidation (the generation key already guarantees such
// entries can never hit; purging returns their LRU slots immediately).
func (c *queryCache) purgeBefore(gen uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*qcEntry); e.k.gen < gen {
			c.lru.Remove(el)
			delete(c.entries, e.k)
			n++
		}
		el = next
	}
	c.purged += int64(n)
	return n
}

// QueryCacheStats reports cache effectiveness for metrics and tests.
type QueryCacheStats struct {
	Entries int
	Hits    int64
	Misses  int64
	Evicted int64
	Purged  int64
}

// QueryCacheStats returns the current cache counters (zero value when the
// cache is disabled).
func (s *Server) QueryCacheStats() QueryCacheStats {
	if s.qcache == nil {
		return QueryCacheStats{}
	}
	c := s.qcache
	c.mu.Lock()
	defer c.mu.Unlock()
	return QueryCacheStats{
		Entries: len(c.entries),
		Hits:    c.hits,
		Misses:  c.misses,
		Evicted: c.evicted,
		Purged:  c.purged,
	}
}

// cachedQuery answers one service request over the pinned view v through
// the server's query cache: a hit returns the memoized response for v's
// generation; a miss computes it over v (once across concurrent identical
// requests, via singleflight) and caches it. Every compute reads exactly
// one view, so every cached value is exact at its generation; an entry
// whose view a later write superseded can only be hit by readers still
// pinned to that view, and the write's purgeBefore drops it. A nil cache
// (the neutral configuration) computes directly, reproducing the uncached
// server exactly.
//
// ctx is the caller's request context, honored two ways: a request already
// cancelled never starts a compute, and a singleflight FOLLOWER whose
// caller hangs up detaches immediately (returning the zero response, which
// nobody reads — the HTTP layer answers 503 on ctx.Err()) while the leader
// finishes for the cache and the surviving followers.
func cachedQuery[Req, Resp any](ctx context.Context, s *Server, v *store.View, svc wire.Service, req Req,
	compute func(*store.View, Req) Resp) Resp {
	resp, _ := cachedResult(ctx, s, v, svc, req, func(v *store.View, r Req) (Resp, error) { return compute(v, r), nil })
	return resp
}

// cachedResult is cachedQuery for a compute that can fail (a tile render).
// A failed compute is never cached: its error reaches the caller, and a
// cancelled caller gets ctx.Err() instead of a response.
func cachedResult[Req, Resp any](ctx context.Context, s *Server, v *store.View, svc wire.Service, req Req,
	compute func(*store.View, Req) (Resp, error)) (Resp, error) {
	var zero Resp
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	c := s.qcache
	if c == nil {
		return compute(v, req)
	}
	kb, err := json.Marshal(req)
	if err != nil {
		return compute(v, req)
	}
	key := string(svc) + "\x00" + string(kb)
	gen := v.Gen
	k := qcKey{gen: gen, key: key}
	if hit, ok := c.get(k); ok {
		return hit.(Resp), nil
	}
	res, err := c.flight.DoCtx(ctx, fmt.Sprintf("%d\x00%s", gen, key), func() (interface{}, error) {
		// A previous flight for this key may have finished between our
		// miss and winning the flight; its cached value is current.
		if hit, ok := c.peek(k); ok {
			return hit, nil
		}
		resp, err := compute(v, req)
		if err != nil {
			return nil, err
		}
		c.put(k, resp)
		return resp, nil
	})
	if err != nil {
		// Three failures land here. A detached follower (our ctx died
		// while the leader computed) returns ctx.Err(). A failed compute
		// or a leader panic — contained by Group, handed to followers as
		// an error — falls back to computing independently, so each
		// caller gets its own answer or its own error and the shared nil
		// value is never read.
		if ctx.Err() != nil {
			return zero, ctx.Err()
		}
		return compute(v, req)
	}
	return res.(Resp), nil
}
