package dns

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"
)

// Resolution errors.
var (
	ErrNXDomain    = errors.New("dns: name does not exist")
	ErrNoData      = errors.New("dns: no records of requested type")
	ErrServFail    = errors.New("dns: server failure")
	ErrNoServers   = errors.New("dns: no reachable nameservers")
	ErrLoop        = errors.New("dns: resolution loop or depth exceeded")
	ErrInvalidName = errors.New("dns: invalid name")
)

// RootHint names a root server and its transport address.
type RootHint struct {
	Name string // e.g. "ns.flame.arpa."
	Addr string // e.g. "127.0.0.1:5300"
}

// Resolver is an iterative (recursive-resolver-style) DNS client with a
// TTL- and LRU-bounded cache. It follows referrals from the configured
// roots, honours CNAMEs, and caches both positive and negative answers —
// the "ubiquitous caching mechanism" §5.1 leans on.
//
// Because OpenFLAME's authoritative servers run on unprivileged ports, a
// delegation's glue may carry SRV records alongside A records to
// communicate the port; absent SRV glue, port 53 is assumed.
type Resolver struct {
	exchanger Exchanger
	roots     []RootHint

	// Now is the clock used for TTL accounting; overridable in tests.
	Now func() time.Time
	// MaxCacheEntries bounds the cache (LRU eviction); 0 means default.
	MaxCacheEntries int

	mu    sync.Mutex
	cache map[cacheKey]*list.Element
	lru   *list.List

	stats ResolverStats
	rng   *rand.Rand
}

// ResolverStats counts resolver activity; used by the discovery experiments.
type ResolverStats struct {
	Queries         int64 // client-level lookups
	CacheHits       int64
	CacheMisses     int64
	UpstreamQueries int64 // messages actually sent to servers
	NegativeHits    int64
}

type cacheKey struct {
	name string
	typ  uint16
}

type cacheEntry struct {
	key      cacheKey
	rrs      []RR
	expiry   time.Time
	negative bool
	nxdomain bool
}

const defaultMaxCacheEntries = 4096

// NewResolver creates a resolver using ex for transport and the given root
// hints.
func NewResolver(ex Exchanger, roots []RootHint) *Resolver {
	return &Resolver{
		exchanger:       ex,
		roots:           roots,
		Now:             time.Now,
		MaxCacheEntries: defaultMaxCacheEntries,
		cache:           make(map[cacheKey]*list.Element),
		lru:             list.New(),
		rng:             rand.New(rand.NewSource(1)),
	}
}

// Stats returns a snapshot of resolver counters.
func (r *Resolver) Stats() ResolverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// FlushCache empties the cache (used to measure cold-path latency).
func (r *Resolver) FlushCache() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cache = make(map[cacheKey]*list.Element)
	r.lru.Init()
}

// CacheLen returns the number of cached entries.
func (r *Resolver) CacheLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cache)
}

// LookupCtx resolves name/typ iteratively, consulting the cache first.
// Cancellation aborts the resolution between (and, for context-aware
// transports, during) upstream round trips.
func (r *Resolver) LookupCtx(ctx context.Context, name string, typ uint16) ([]RR, error) {
	name = CanonicalName(name)
	if len(name) > 255 {
		return nil, ErrInvalidName
	}
	r.mu.Lock()
	r.stats.Queries++
	r.mu.Unlock()
	return r.resolve(ctx, name, typ, 0)
}

// LookupTXTCtx resolves TXT records and returns their joined strings.
func (r *Resolver) LookupTXTCtx(ctx context.Context, name string) ([]string, error) {
	rrs, err := r.LookupCtx(ctx, name, TypeTXT)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, rr := range rrs {
		if rr.Type == TypeTXT {
			var joined string
			for _, s := range rr.TXT {
				joined += s
			}
			out = append(out, joined)
		}
	}
	return out, nil
}

const (
	maxReferrals = 24
	maxCNAME     = 8
)

func (r *Resolver) resolve(ctx context.Context, name string, typ uint16, cnameDepth int) ([]RR, error) {
	if cnameDepth > maxCNAME {
		return nil, ErrLoop
	}
	if rrs, err, ok := r.cacheGet(name, typ); ok {
		return rrs, err
	}

	servers := r.bestServers(name)
	if len(servers) == 0 {
		return nil, ErrNoServers
	}
	for hop := 0; hop < maxReferrals; hop++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resp, err := r.queryAny(ctx, servers, name, typ)
		if err != nil {
			return nil, err
		}
		switch {
		case resp.Rcode == RcodeNameError:
			ttl := negativeTTL(resp.Authority)
			r.cachePutNegative(name, typ, ttl, true)
			return nil, ErrNXDomain

		case len(resp.Answers) > 0:
			r.cacheAll(resp.Answers)
			// If we asked for typ but got a CNAME chain ending elsewhere,
			// chase the final target.
			final := resp.Answers[len(resp.Answers)-1]
			if typ != TypeCNAME && final.Type == TypeCNAME {
				target, err := r.resolve(ctx, CanonicalName(final.Target), typ, cnameDepth+1)
				if err != nil {
					return nil, err
				}
				return append(resp.Answers, target...), nil
			}
			r.cachePut(name, typ, answersOfType(resp.Answers, name, typ))
			return resp.Answers, nil

		case hasNS(resp.Authority):
			// Referral: cache the delegation and glue, then descend.
			r.cacheAll(resp.Authority)
			r.cacheAll(resp.Additional)
			next := r.serversFromReferral(resp.Authority, resp.Additional)
			if len(next) == 0 {
				return nil, ErrNoServers
			}
			servers = next

		case resp.Rcode == RcodeSuccess:
			// Authoritative NoData.
			ttl := negativeTTL(resp.Authority)
			r.cachePutNegative(name, typ, ttl, false)
			return nil, ErrNoData

		default:
			return nil, fmt.Errorf("%w (rcode %d)", ErrServFail, resp.Rcode)
		}
	}
	return nil, ErrLoop
}

// queryAny tries each server until one responds.
func (r *Resolver) queryAny(ctx context.Context, servers []string, name string, typ uint16) (*Message, error) {
	var lastErr error
	for _, addr := range servers {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r.mu.Lock()
		id := uint16(r.rng.Intn(1 << 16))
		r.stats.UpstreamQueries++
		r.mu.Unlock()
		req := &Message{ID: id, Questions: []Question{{Name: name, Type: typ, Class: ClassIN}}}
		resp, err := exchange(ctx, r.exchanger, addr, req)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Rcode == RcodeRefused || resp.Rcode == RcodeServerFailure {
			lastErr = fmt.Errorf("%w (rcode %d from %s)", ErrServFail, resp.Rcode, addr)
			continue
		}
		return resp, nil
	}
	if lastErr == nil {
		lastErr = ErrNoServers
	}
	return nil, lastErr
}

// bestServers returns transport addresses of the closest enclosing known
// zone: cached NS records walking up from name, else the roots.
func (r *Resolver) bestServers(name string) []string {
	for n := name; ; n = ParentName(n) {
		if rrs, err, ok := r.cacheGet(n, TypeNS); ok && err == nil {
			addrs := r.nsAddresses(rrs)
			if len(addrs) > 0 {
				return addrs
			}
		}
		if n == "." {
			break
		}
	}
	out := make([]string, 0, len(r.roots))
	for _, h := range r.roots {
		out = append(out, h.Addr)
	}
	return out
}

// serversFromReferral extracts transport addresses for the NS set in a
// referral, using glue from the additional section or the cache.
func (r *Resolver) serversFromReferral(authority, additional []RR) []string {
	var addrs []string
	for _, ns := range authority {
		if ns.Type != TypeNS {
			continue
		}
		target := CanonicalName(ns.Target)
		var ip net.IP
		var port uint16 = 53
		for _, g := range additional {
			if CanonicalName(g.Name) != target {
				continue
			}
			switch g.Type {
			case TypeA, TypeAAAA:
				ip = g.IP
			case TypeSRV:
				port = g.SRV.Port
			}
		}
		if ip == nil {
			if rrs, err, ok := r.cacheGet(target, TypeA); ok && err == nil && len(rrs) > 0 {
				ip = rrs[0].IP
			}
		}
		if ip == nil {
			continue
		}
		if rrs, err, ok := r.cacheGet(target, TypeSRV); ok && err == nil && len(rrs) > 0 && rrs[0].SRV != nil {
			port = rrs[0].SRV.Port
		}
		addrs = append(addrs, net.JoinHostPort(ip.String(), strconv.Itoa(int(port))))
	}
	return addrs
}

// nsAddresses maps cached NS records to transport addresses using cached
// glue.
func (r *Resolver) nsAddresses(nsRecs []RR) []string {
	var addrs []string
	for _, ns := range nsRecs {
		if ns.Type != TypeNS {
			continue
		}
		target := CanonicalName(ns.Target)
		aRecs, err, ok := r.cacheGet(target, TypeA)
		if !ok || err != nil || len(aRecs) == 0 {
			continue
		}
		var port uint16 = 53
		if srv, err, ok := r.cacheGet(target, TypeSRV); ok && err == nil && len(srv) > 0 && srv[0].SRV != nil {
			port = srv[0].SRV.Port
		}
		addrs = append(addrs, net.JoinHostPort(aRecs[0].IP.String(), strconv.Itoa(int(port))))
	}
	return addrs
}

func hasNS(rrs []RR) bool {
	for _, r := range rrs {
		if r.Type == TypeNS {
			return true
		}
	}
	return false
}

func answersOfType(answers []RR, name string, typ uint16) []RR {
	var out []RR
	for _, a := range answers {
		if a.Type == typ {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return answers
	}
	return out
}

func negativeTTL(authority []RR) uint32 {
	for _, rr := range authority {
		if rr.Type == TypeSOA && rr.SOA != nil {
			ttl := rr.SOA.Minimum
			if rr.TTL < ttl {
				ttl = rr.TTL
			}
			return ttl
		}
	}
	return 30
}

// --- cache ---

func (r *Resolver) cacheGet(name string, typ uint16) ([]RR, error, bool) {
	key := cacheKey{CanonicalName(name), typ}
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.cache[key]
	if !ok {
		r.stats.CacheMisses++
		return nil, nil, false
	}
	e := el.Value.(*cacheEntry)
	if r.Now().After(e.expiry) {
		r.lru.Remove(el)
		delete(r.cache, key)
		r.stats.CacheMisses++
		return nil, nil, false
	}
	r.lru.MoveToFront(el)
	r.stats.CacheHits++
	if e.negative {
		r.stats.NegativeHits++
		if e.nxdomain {
			return nil, ErrNXDomain, true
		}
		return nil, ErrNoData, true
	}
	return append([]RR(nil), e.rrs...), nil, true
}

func (r *Resolver) cachePut(name string, typ uint16, rrs []RR) {
	if len(rrs) == 0 {
		return
	}
	ttl := rrs[0].TTL
	for _, rr := range rrs[1:] {
		if rr.TTL < ttl {
			ttl = rr.TTL
		}
	}
	r.put(&cacheEntry{
		key:    cacheKey{CanonicalName(name), typ},
		rrs:    append([]RR(nil), rrs...),
		expiry: r.Now().Add(time.Duration(ttl) * time.Second),
	})
}

func (r *Resolver) cachePutNegative(name string, typ uint16, ttl uint32, nxdomain bool) {
	r.put(&cacheEntry{
		key:      cacheKey{CanonicalName(name), typ},
		expiry:   r.Now().Add(time.Duration(ttl) * time.Second),
		negative: true,
		nxdomain: nxdomain,
	})
}

// cacheAll groups records by (name, type) and caches each group.
func (r *Resolver) cacheAll(rrs []RR) {
	groups := make(map[cacheKey][]RR)
	for _, rr := range rrs {
		if rr.Type == TypeSOA {
			continue
		}
		key := cacheKey{CanonicalName(rr.Name), rr.Type}
		groups[key] = append(groups[key], rr)
	}
	for key, group := range groups {
		r.cachePut(key.name, key.typ, group)
	}
}

func (r *Resolver) put(e *cacheEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.cache[e.key]; ok {
		el.Value = e
		r.lru.MoveToFront(el)
		return
	}
	max := r.MaxCacheEntries
	if max <= 0 {
		max = defaultMaxCacheEntries
	}
	for len(r.cache) >= max {
		oldest := r.lru.Back()
		if oldest == nil {
			break
		}
		r.lru.Remove(oldest)
		delete(r.cache, oldest.Value.(*cacheEntry).key)
	}
	r.cache[e.key] = r.lru.PushFront(e)
}
