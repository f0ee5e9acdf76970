// Package discovery implements the paper's map-server discovery layer
// (§5.1): spatial cells are encoded as hierarchical domain names, map
// servers register TXT announcements on every cell of their coverage, and
// clients resolve their location's ancestor chain through ordinary DNS —
// inheriting its delegation, federation, and ubiquitous caching.
//
// Naming: the level-k cell containing a point becomes
//
//	q<b_k>.q<b_{k-1}>…q<b_1>.f<face>.<suffix>
//
// where b_i is the cell's Hilbert quadrant at level i. The left-most label
// is the most specific, so a cell's domain name has its spatial ancestors
// as DNS suffixes: organizations can be delegated entire spatial subtrees
// with standard NS records, and negative caching prunes empty regions.
package discovery

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"

	"openflame/internal/dns"
	"openflame/internal/fanout"
	"openflame/internal/geo"
	"openflame/internal/loc"
	"openflame/internal/s2cell"
	"openflame/internal/wire"
)

// DefaultSuffix is the root of the spatial namespace.
const DefaultSuffix = "loc.flame.arpa."

// Default registration levels: level 12 cells are ~2km across, level 16
// cells are ~150m across — between a neighbourhood and a building.
const (
	DefaultMinLevel = 12
	DefaultMaxLevel = 16
)

// CellDomain returns the domain name of a cell under the suffix.
func CellDomain(c s2cell.CellID, suffix string) string {
	suffix = dns.CanonicalName(suffix)
	level := c.Level()
	labels := make([]string, 0, level+1)
	for l := level; l >= 1; l-- {
		labels = append(labels, fmt.Sprintf("q%d", c.ChildPosition(l)))
	}
	labels = append(labels, fmt.Sprintf("f%d", c.Face()))
	return strings.Join(labels, ".") + "." + suffix
}

// Announcement is one map server's presence on one cell.
type Announcement struct {
	Name         string           `json:"name"`
	URL          string           `json:"url"`
	Services     []wire.Service   `json:"services,omitempty"`
	Technologies []loc.Technology `json:"technologies,omitempty"`
	// Registry identifies the registry that wrote the record (its zone
	// suffix) — the scope of Epoch. Epochs from different registries are
	// independent counters; a client must never compare them (a young
	// operator's epoch 2 is not "older" than a long-lived operator's 100).
	Registry string `json:"registry,omitempty"`
	// Epoch is the registry's membership epoch at the time the record was
	// (re)written. Every membership change — a server joining, leaving, or
	// moving — advances the epoch and re-stamps the records it touches, so
	// a client observing a higher epoch for the same Registry knows its
	// cached view of that registry's cells is stale (see Client's
	// announcement cache).
	Epoch uint64 `json:"epoch,omitempty"`
	// ReplicaSet groups servers that serve identical content for the same
	// region: the client plans one request per replica set, failing over
	// between members, instead of querying every member and merging
	// duplicates. Empty means the server is the sole member of its own
	// implicit set.
	ReplicaSet string `json:"replicaSet,omitempty"`
	// Level is the cell level the announcement was found at.
	Level int `json:"level"`
	// CellToken identifies the cell the announcement was found on.
	CellToken string `json:"cellToken"`
}

// FormatTXT renders the announcement as a TXT record payload.
func FormatTXT(a Announcement) string {
	parts := []string{"v=flame1", "name=" + a.Name, "url=" + a.URL}
	if a.Registry != "" {
		parts = append(parts, "reg="+a.Registry)
	}
	if a.Epoch > 0 {
		parts = append(parts, fmt.Sprintf("epoch=%d", a.Epoch))
	}
	if a.ReplicaSet != "" {
		parts = append(parts, "rs="+a.ReplicaSet)
	}
	if len(a.Services) > 0 {
		svc := make([]string, len(a.Services))
		for i, s := range a.Services {
			svc[i] = string(s)
		}
		parts = append(parts, "srv="+strings.Join(svc, ","))
	}
	if len(a.Technologies) > 0 {
		ts := make([]string, len(a.Technologies))
		for i, t := range a.Technologies {
			ts[i] = string(t)
		}
		parts = append(parts, "tech="+strings.Join(ts, ","))
	}
	return strings.Join(parts, " ")
}

// ParseTXT parses a TXT payload; ok is false for non-flame or malformed
// records.
func ParseTXT(s string) (Announcement, bool) {
	fields := strings.Fields(s)
	var a Announcement
	versioned := false
	for _, f := range fields {
		k, v, found := strings.Cut(f, "=")
		if !found {
			continue
		}
		switch k {
		case "v":
			versioned = v == "flame1"
		case "name":
			a.Name = v
		case "url":
			a.URL = v
		case "reg":
			a.Registry = v
		case "epoch":
			if n, err := strconv.ParseUint(v, 10, 64); err == nil {
				a.Epoch = n
			}
		case "rs":
			a.ReplicaSet = v
		case "srv":
			for _, s := range strings.Split(v, ",") {
				if s != "" {
					a.Services = append(a.Services, wire.Service(s))
				}
			}
		case "tech":
			for _, s := range strings.Split(v, ",") {
				if s != "" {
					a.Technologies = append(a.Technologies, loc.Technology(s))
				}
			}
		}
	}
	if !versioned || a.Name == "" || a.URL == "" {
		return Announcement{}, false
	}
	return a, true
}

// Registry writes map-server registrations into an authoritative zone and
// tracks live membership: servers can Register and Unregister at runtime,
// each change advancing a registry-wide membership epoch and rewriting the
// zone records it touches with the new epoch — so clients holding cached
// announcements for those cells learn, from any fresh record they see, that
// their view predates the change. Safe for concurrent use.
type Registry struct {
	zone   *dns.Zone
	suffix string
	// TTLSeconds for announcement records; default 60.
	TTLSeconds uint32
	// LeaseTTL, when > 0, turns registrations into leases: a member that
	// does not re-announce (an identical Register is a cheap renewal — no
	// epoch bump, no zone rewrite) within the TTL is evicted by
	// ExpireLeases, closing the gap a member that dies WITHOUT a clean
	// Unregister (SIGKILL, power loss) would otherwise leave — advertised
	// forever, absorbed only by client breakers. Zero keeps registrations
	// permanent (the pre-lease behaviour).
	LeaseTTL time.Duration
	// Now is the lease clock; overridable in tests.
	Now func() time.Time

	mu      sync.Mutex
	epoch   uint64
	members map[string]*regMember // name → live registration
}

// regMember is one live registration.
type regMember struct {
	url        string
	coverage   []string
	services   []wire.Service
	techs      []loc.Technology
	replicaSet string
	// renewed is when the member last (re)announced — the lease clock.
	renewed time.Time
}

// sameRegistration reports whether a registration request is identical to
// the live member — the renewal fast path (coverage is order-independent;
// list order changes read as a real re-registration, which is safe, just
// not free).
func (m *regMember) sameRegistration(info wire.Info, url, replicaSet string) bool {
	if m.url != url || m.replicaSet != replicaSet ||
		len(m.services) != len(info.Services) || len(m.techs) != len(info.Technologies) ||
		!sameTokenSet(m.coverage, info.Coverage) {
		return false
	}
	for i, s := range m.services {
		if s != info.Services[i] {
			return false
		}
	}
	for i, tech := range m.techs {
		if tech != info.Technologies[i] {
			return false
		}
	}
	return true
}

// now returns the lease clock's reading.
func (r *Registry) now() time.Time {
	if r.Now != nil {
		return r.Now()
	}
	return time.Now()
}

// NewRegistry creates a registry over the zone; suffix defaults to the
// zone apex.
func NewRegistry(zone *dns.Zone, suffix string) *Registry {
	if suffix == "" {
		suffix = zone.Apex()
	}
	return &Registry{
		zone:       zone,
		suffix:     dns.CanonicalName(suffix),
		TTLSeconds: 60,
		members:    make(map[string]*regMember),
	}
}

// Epoch returns the current membership epoch (0 before any registration).
func (r *Registry) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Members returns the names of the live registrations, sorted.
func (r *Registry) Members() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.members))
	for name := range r.members {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ReplicaSetOf returns the replica-set id the named server registered
// under ("" for solo servers or unknown names).
func (r *Registry) ReplicaSetOf(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.members[name]; ok {
		return m.replicaSet
	}
	return ""
}

// Register announces a server on every coverage cell. Cell tokens outside
// the registry's zone are rejected. Registering an already-registered name
// re-registers it (the old records are removed first), so a server that
// restarts with new coverage or a new URL converges to one registration.
func (r *Registry) Register(info wire.Info, url string) error {
	return r.RegisterReplica(info, url, "")
}

// RegisterReplica is Register with a replica-set id: servers registered
// under the same non-empty id advertise identical content for the same
// region, and clients contact one of them per request instead of all.
func (r *Registry) RegisterReplica(info wire.Info, url, replicaSet string) error {
	if len(info.Coverage) == 0 {
		return fmt.Errorf("discovery: empty coverage for %s", info.Name)
	}
	// The TXT payload is space-delimited (lists comma-joined) and the
	// rewrite logic identifies managed records by their parsed name:
	// whitespace — or a comma inside a list element — would corrupt
	// round-tripping (a record whose name re-parses differently reads as
	// foreign and gets duplicated on every rewrite; a service "a b" would
	// silently re-parse as "a").
	tokens := []struct {
		what, v string
		isList  bool // comma-joined on the wire: commas are also forbidden
	}{
		{"name", info.Name, false}, {"url", url, false}, {"replica set", replicaSet, false},
	}
	for _, s := range info.Services {
		tokens = append(tokens, struct {
			what, v string
			isList  bool
		}{"service", string(s), true})
	}
	for _, tech := range info.Technologies {
		tokens = append(tokens, struct {
			what, v string
			isList  bool
		}{"technology", string(tech), true})
	}
	for _, tok := range tokens {
		if strings.IndexFunc(tok.v, unicode.IsSpace) >= 0 || (tok.isList && strings.Contains(tok.v, ",")) {
			return fmt.Errorf("discovery: %s %q would corrupt the TXT encoding", tok.what, tok.v)
		}
	}
	// Validate the whole coverage BEFORE touching membership: a rejected
	// registration must leave no phantom member behind whose bad cells
	// would poison every later zone rewrite.
	for _, tok := range info.Coverage {
		cell := s2cell.FromToken(tok)
		if !cell.IsValid() {
			return fmt.Errorf("discovery: bad cell token %q", tok)
		}
		if domain := CellDomain(cell, r.suffix); !dns.IsSubdomain(r.zone.Apex(), domain) {
			return fmt.Errorf("discovery: cell %s (%s) outside zone %s", tok, domain, r.zone.Apex())
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Replica-set members claim to serve identical content for the same
	// region; enforce the checkable half of that claim — identical
	// coverage. (Set ids share the server-name contract: operator-scoped,
	// e.g. "acme-city", since the client groups purely by id.)
	if replicaSet != "" {
		for name, m := range r.members {
			if name == info.Name || m.replicaSet != replicaSet {
				continue
			}
			if !sameTokenSet(m.coverage, info.Coverage) {
				return fmt.Errorf("discovery: %s cannot join replica set %q: coverage differs from member %s",
					info.Name, replicaSet, name)
			}
		}
	}
	var touched []string
	if old, ok := r.members[info.Name]; ok {
		// An identical re-announcement is a lease renewal, not a membership
		// change: refresh the clock and leave epoch and zone untouched, so
		// periodic re-announces stay free of client-cache churn.
		if old.sameRegistration(info, url, replicaSet) {
			old.renewed = r.now()
			return nil
		}
		touched = old.coverage
	}
	r.members[info.Name] = &regMember{
		url:        url,
		coverage:   append([]string(nil), info.Coverage...),
		services:   info.Services,
		techs:      info.Technologies,
		replicaSet: replicaSet,
		renewed:    r.now(),
	}
	r.epoch++
	return r.rewriteCellsLocked(r.allTokensLocked(touched))
}

// ExpireLeases evicts every member whose lease has lapsed (no re-announce
// within LeaseTTL), removing its records, advancing the membership epoch
// once for the batch, and re-stamping the survivors — exactly the exit a
// clean Unregister performs, driven by silence instead of a goodbye.
// Returns the evicted names, sorted; no-op while LeaseTTL is zero.
func (r *Registry) ExpireLeases() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.LeaseTTL <= 0 {
		return nil
	}
	now := r.now()
	var evicted []string
	var touched []string
	for name, m := range r.members {
		if now.Sub(m.renewed) > r.LeaseTTL {
			evicted = append(evicted, name)
			touched = append(touched, m.coverage...)
		}
	}
	if len(evicted) == 0 {
		return nil
	}
	sort.Strings(evicted)
	for _, name := range evicted {
		m := r.members[name]
		delete(r.members, name)
		r.removeMemberRecordsLocked(name, m.coverage)
	}
	r.epoch++
	_ = r.rewriteCellsLocked(r.allTokensLocked(touched))
	return evicted
}

// removeMemberRecordsLocked drops the named member's TXT records from the
// given coverage cells, returning how many were removed — the one place
// the record-identity needle lives, shared by Unregister and lease
// eviction. The caller holds r.mu.
func (r *Registry) removeMemberRecordsLocked(name string, coverage []string) int {
	needle := "name=" + name + " "
	removed := 0
	for _, tok := range coverage {
		cell := s2cell.FromToken(tok)
		if !cell.IsValid() {
			continue
		}
		removed += r.zone.RemoveWhere(CellDomain(cell, r.suffix), dns.TypeTXT, func(rr dns.RR) bool {
			return !strings.Contains(strings.Join(rr.TXT, "")+" ", needle)
		})
	}
	return removed
}

// SweepLeases runs ExpireLeases every interval until the context is
// cancelled — the background mode cmd/flame-dns wires behind -lease.
// Evictions are reported through logf (nil discards them).
func (r *Registry) SweepLeases(ctx context.Context, interval time.Duration, logf func(format string, args ...interface{})) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if evicted := r.ExpireLeases(); len(evicted) > 0 && logf != nil {
				logf("lease lapsed, evicted: %s (epoch %d)", strings.Join(evicted, ", "), r.Epoch())
			}
		}
	}
}

// sameTokenSet reports whether two coverages hold the same cell tokens,
// order-independent.
func sameTokenSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]struct{}, len(a))
	for _, t := range a {
		set[t] = struct{}{}
	}
	for _, t := range b {
		if _, ok := set[t]; !ok {
			return false
		}
	}
	return true
}

// allTokensLocked returns every cell token any live member announces on,
// plus the extras — the rewrite set that keeps the whole zone stamped at
// one uniform epoch (a client can then treat ANY higher epoch it sees as
// proof that everything it cached earlier predates the change). The caller
// holds r.mu.
func (r *Registry) allTokensLocked(extra []string) []string {
	out := append([]string(nil), extra...)
	for _, m := range r.members {
		out = append(out, m.coverage...)
	}
	return out
}

// Unregister removes all announcements for the named server across the
// coverage cells, returning how many records were removed. The membership
// epoch advances and surviving records on the departed server's cells are
// re-stamped with it, so clients caching those cells drop their stale view
// instead of waiting out the TTL.
func (r *Registry) Unregister(name string, coverage []string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.members[name]; ok {
		coverage = append(append([]string(nil), coverage...), m.coverage...)
		delete(r.members, name)
	}
	removed := r.removeMemberRecordsLocked(name, coverage)
	if removed > 0 {
		r.epoch++
		_ = r.rewriteCellsLocked(r.allTokensLocked(coverage))
	}
	return removed
}

// UnregisterServer removes the named live registration using the coverage
// the registry tracked for it.
func (r *Registry) UnregisterServer(name string) int {
	return r.Unregister(name, nil)
}

// rewriteCellsLocked rebuilds the TXT records of the given cells from the
// tracked membership, stamping them with the current epoch. Records the
// registry does not manage (other names on the same cells added directly to
// the zone) are preserved. The caller holds r.mu.
func (r *Registry) rewriteCellsLocked(tokens []string) error {
	managed := make(map[string]bool, len(r.members))
	names := make([]string, 0, len(r.members))
	covers := make(map[string]map[string]bool, len(r.members))
	for name, m := range r.members {
		managed[name] = true
		names = append(names, name)
		set := make(map[string]bool, len(m.coverage))
		for _, tok := range m.coverage {
			set[tok] = true
		}
		covers[name] = set
	}
	sort.Strings(names)
	seen := make(map[string]bool, len(tokens))
	for _, tok := range tokens {
		if seen[tok] {
			continue
		}
		seen[tok] = true
		cell := s2cell.FromToken(tok)
		if !cell.IsValid() {
			continue
		}
		domain := CellDomain(cell, r.suffix)
		// Drop every managed record on the cell, keep foreign ones.
		r.zone.RemoveWhere(domain, dns.TypeTXT, func(rr dns.RR) bool {
			a, ok := ParseTXT(strings.Join(rr.TXT, ""))
			return !ok || !managed[a.Name]
		})
		// Re-add the members announcing on this cell at the current epoch,
		// in sorted name order so the zone content is deterministic.
		for _, name := range names {
			if !covers[name][tok] {
				continue
			}
			m := r.members[name]
			payload := FormatTXT(Announcement{
				Name: name, URL: m.url,
				Services: m.services, Technologies: m.techs,
				Registry: r.suffix, Epoch: r.epoch, ReplicaSet: m.replicaSet,
			})
			rr := dns.RR{
				Name: domain, Type: dns.TypeTXT,
				TTL: r.TTLSeconds, TXT: []string{payload},
			}
			if err := r.zone.Add(rr); err != nil {
				return err
			}
		}
	}
	return nil
}

// DefaultAnnouncementTTL is how long a cell's parsed announcements (and
// negative answers) are kept in the client-side cache. It is deliberately
// short — the DNS resolver beneath already honours record TTLs; this layer
// only absorbs the re-resolution and re-parsing of bursts of discoveries
// over the same area.
const DefaultAnnouncementTTL = time.Second

// Client discovers map servers by location through a DNS resolver. It is
// safe for concurrent use; discoveries over a region fan their per-cell TXT
// lookups out concurrently, coalescing duplicate in-flight lookups and
// caching parsed announcements for AnnouncementTTL.
type Client struct {
	resolver *dns.Resolver
	suffix   string
	// MinLevel..MaxLevel is the ancestor range queried per discovery.
	MinLevel, MaxLevel int
	// MaxConcurrency bounds concurrent TXT lookups per discovery call
	// (default fanout.DefaultLimit; 1 reproduces sequential lookups).
	MaxConcurrency int
	// AnnouncementTTL bounds the per-cell announcement cache; <= 0
	// disables caching.
	AnnouncementTTL time.Duration

	// Now is the cache clock; overridable in tests.
	Now func() time.Time

	flight  fanout.Group[[]Announcement]
	cacheMu sync.Mutex
	cache   map[string]annCacheEntry
	// maxEpoch holds the highest membership epoch observed PER REGISTRY
	// (announcements carry their registry's identity): epochs from
	// independent operators are independent counters and must never be
	// compared with each other. epochLowSince tracks when a registry
	// FIRST answered with a lower epoch than maxEpoch remembers — briefly
	// that is a stale cache layer, but persisting past the grace window it
	// means the registry restarted and its counter reset (see
	// observeEpochs); without the reset path, a long-lived client would
	// refuse to cache that registry's answers forever.
	maxEpoch      map[string]uint64
	epochLowSince map[string]time.Time
}

// epochRegressionGrace is how long a registry must keep answering with
// epochs below the remembered maximum before the client accepts that its
// counter reset (a registry restart) rather than suspecting stale caches.
// It comfortably exceeds the default record TTL, so every stale layer has
// aged out before the reset is believed.
const epochRegressionGrace = 2 * time.Minute

type annCacheEntry struct {
	anns   []Announcement
	expiry time.Time
	// regEpochs records, per registry present in the entry, the epoch its
	// announcements carried; an advance of that registry invalidates the
	// entry eagerly (the membership changed under it). Entries with no
	// epoch-bearing announcements (negatives, legacy records) rely on the
	// TTL alone.
	regEpochs map[string]uint64
}

// NewClient creates a discovery client.
func NewClient(res *dns.Resolver, suffix string) *Client {
	if suffix == "" {
		suffix = DefaultSuffix
	}
	return &Client{
		resolver:        res,
		suffix:          dns.CanonicalName(suffix),
		MinLevel:        DefaultMinLevel,
		MaxLevel:        DefaultMaxLevel,
		AnnouncementTTL: DefaultAnnouncementTTL,
		Now:             time.Now,
		cache:           make(map[string]annCacheEntry),
		maxEpoch:        make(map[string]uint64),
		epochLowSince:   make(map[string]time.Time),
	}
}

// dedupAnnouncements keeps the first occurrence of each (name, url) pair,
// preserving order — the shared dedup step of every discovery flavour
// (overlapping maps announce on many cells, §3).
func dedupAnnouncements(anns []Announcement) []Announcement {
	type key struct{ name, url string }
	seen := make(map[key]struct{}, len(anns))
	out := anns[:0]
	for _, a := range anns {
		k := key{a.Name, a.URL}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, a)
	}
	return out
}

// lookupCell resolves and parses one cell's announcements, consulting the
// TTL cache first and coalescing concurrent duplicate lookups. Negative
// answers (nothing announced) are cached too. The returned slice is shared:
// callers must not mutate it.
func (c *Client) lookupCell(ctx context.Context, domain string) []Announcement {
	ttl := c.AnnouncementTTL
	if ttl > 0 {
		c.cacheMu.Lock()
		e, ok := c.cache[domain]
		if ok && c.Now().Before(e.expiry) {
			c.cacheMu.Unlock()
			return e.anns
		}
		c.cacheMu.Unlock()
	}
	resolve := func(ctx context.Context) ([]Announcement, error) {
		txts, err := c.resolver.LookupTXTCtx(ctx, domain)
		if err != nil {
			return nil, err // NXDOMAIN and friends: nothing announced here
		}
		var out []Announcement
		for _, t := range txts {
			if a, ok := ParseTXT(t); ok {
				out = append(out, a)
			}
		}
		return out, nil
	}
	anns, err := c.flight.DoCtx(ctx, domain, func() ([]Announcement, error) {
		return resolve(ctx)
	})
	// The coalesced result ran under the *leader's* context. If it failed
	// only because the leader was cancelled while our own context is still
	// live, retry directly rather than report a phantom empty cell. A
	// follower whose own context ends detaches with ctx.Err(), uncached.
	if isCtxErr(err) && ctx.Err() == nil {
		anns, err = resolve(ctx)
	}
	// A fresh answer carrying a newer membership epoch for its registry
	// proves every entry cached under that registry's older epochs is from
	// a stale federation view: drop them so a departed or moved server
	// leaves the fan-out now, not at TTL expiry.
	c.observeEpochs(anns)
	// Cache positive answers and definitive negatives; transient failures
	// (server failure, cancellation mid-lookup) are not cached.
	definitive := err == nil || errors.Is(err, dns.ErrNXDomain) || errors.Is(err, dns.ErrNoData)
	if ttl > 0 && definitive {
		c.cacheStore(domain, anns)
	}
	return anns
}

// regEpochsOf collects the highest epoch per registry among epoch-bearing
// announcements (nil when none carry one).
func regEpochsOf(anns []Announcement) map[string]uint64 {
	var out map[string]uint64
	for _, a := range anns {
		if a.Registry == "" || a.Epoch == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]uint64, 1)
		}
		if a.Epoch > out[a.Registry] {
			out[a.Registry] = a.Epoch
		}
	}
	return out
}

// observeEpochs records freshly-resolved membership epochs, invalidating —
// per advancing registry — every cache entry holding that registry's
// announcements from an older epoch. The first observation of a registry
// does not flush: a cold sweep stores and observes concurrently, and the
// registry stamps its whole zone uniformly, so nothing cached before it
// can be told apart from the current view (the TTL covers the cold-start
// race of a change landing mid-sweep).
func (c *Client) observeEpochs(anns []Announcement) {
	fresh := regEpochsOf(anns)
	if fresh == nil {
		return
	}
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	for reg, epoch := range fresh {
		prev := c.maxEpoch[reg]
		if epoch < prev {
			// Lower than remembered: a stale cache layer — or a restarted
			// registry whose counter reset. Believe the reset only once
			// the regression has persisted past every cache layer's TTL.
			first, pending := c.epochLowSince[reg]
			now := c.Now()
			if !pending {
				c.epochLowSince[reg] = now
				continue
			}
			if now.Sub(first) < epochRegressionGrace {
				continue
			}
			delete(c.epochLowSince, reg)
			c.maxEpoch[reg] = epoch
			// Drop EVERY entry of this registry: stamps from the old
			// counter are incomparable with the new one.
			for k, e := range c.cache {
				if _, ok := e.regEpochs[reg]; ok {
					delete(c.cache, k)
				}
			}
			continue
		}
		delete(c.epochLowSince, reg) // current-or-newer answer: no regression
		if epoch == prev {
			continue
		}
		c.maxEpoch[reg] = epoch
		if prev == 0 {
			continue // first observation of this registry
		}
		c.flushRegLocked(reg, epoch)
	}
}

// flushRegLocked drops cache entries holding reg's announcements stamped
// below epoch. Caller holds cacheMu.
func (c *Client) flushRegLocked(reg string, epoch uint64) {
	for k, e := range c.cache {
		if got, ok := e.regEpochs[reg]; ok && got < epoch {
			delete(c.cache, k)
		}
	}
}

// ObservedEpoch returns the highest membership epoch seen from any single
// registry (the per-registry counters are independent; this accessor
// serves single-registry deployments, tests, and diagnostics).
func (c *Client) ObservedEpoch() uint64 {
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	var max uint64
	for _, e := range c.maxEpoch {
		if e > max {
			max = e
		}
	}
	return max
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// maxAnnCacheEntries bounds the announcement cache (the resolver below has
// its own LRU; this cap only guards the parsed layer).
const maxAnnCacheEntries = 4096

// cacheStore inserts an entry stamped with the per-registry epochs its
// announcements carry, evicting expired entries — and, if the cache is
// still over the cap, arbitrary ones — so a long-lived client sweeping
// many regions cannot grow memory without bound. An answer carrying an
// epoch BEHIND its registry's observed one is NOT cached: it came through
// a stale lower cache layer and admitting it would re-introduce exactly
// the staleness the epoch flush removed. Epoch-less answers (negatives,
// legacy records) rely on the TTL alone.
func (c *Client) cacheStore(domain string, anns []Announcement) {
	regEpochs := regEpochsOf(anns)
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	for reg, epoch := range regEpochs {
		if epoch < c.maxEpoch[reg] {
			return
		}
	}
	if _, exists := c.cache[domain]; !exists && len(c.cache) >= maxAnnCacheEntries {
		now := c.Now()
		for k, e := range c.cache {
			if now.After(e.expiry) {
				delete(c.cache, k)
			}
		}
		for k := range c.cache {
			if len(c.cache) < maxAnnCacheEntries {
				break
			}
			delete(c.cache, k)
		}
	}
	c.cache[domain] = annCacheEntry{anns: anns, expiry: c.Now().Add(c.AnnouncementTTL), regEpochs: regEpochs}
}

// lookupCells resolves a batch of cells with bounded concurrency and
// returns the announcements per cell, annotated with the cell's level and
// token. Order of the result matches the order of cells.
func (c *Client) lookupCells(ctx context.Context, cells []s2cell.CellID) [][]Announcement {
	perCell := make([][]Announcement, len(cells))
	fanout.ForEach(ctx, len(cells), c.MaxConcurrency, func(ctx context.Context, i int) {
		cell := cells[i]
		anns := c.lookupCell(ctx, CellDomain(cell, c.suffix))
		if len(anns) == 0 {
			return
		}
		annotated := make([]Announcement, len(anns))
		for j, a := range anns {
			a.Level = cell.Level()
			a.CellToken = cell.Token()
			annotated[j] = a
		}
		perCell[i] = annotated
	})
	return perCell
}

// Discover returns every map server announced on the location's cell
// ancestor chain — possibly several per cell (overlapping maps, §3),
// possibly none. Results are deduplicated by (name, url), finest level
// first.
func (c *Client) Discover(ll geo.LatLng) []Announcement {
	return c.DiscoverCtx(context.Background(), ll)
}

// DiscoverCtx is Discover under a context: the ancestor-chain lookups run
// concurrently and cancellation aborts them.
func (c *Client) DiscoverCtx(ctx context.Context, ll geo.LatLng) []Announcement {
	leaf := s2cell.FromLatLng(ll)
	var cells []s2cell.CellID
	for level := c.MaxLevel; level >= c.MinLevel; level-- {
		cells = append(cells, leaf.Parent(level))
	}
	var out []Announcement
	for _, anns := range c.lookupCells(ctx, cells) {
		out = append(out, anns...)
	}
	return dedupAnnouncements(out)
}

// DiscoverRegion discovers servers announced anywhere on a region's
// covering. The covering is taken at MaxLevel (announcements from small
// zones exist only on fine cells), so the query fan-out grows with region
// area; the per-cell lookups are batched concurrently, ancestors shared
// between covering cells are resolved once, and DNS caching absorbs
// repeats.
func (c *Client) DiscoverRegion(region s2cell.Region) []Announcement {
	return c.DiscoverRegionCtx(context.Background(), region)
}

// DiscoverRegionCtx is DiscoverRegion under a context.
func (c *Client) DiscoverRegionCtx(ctx context.Context, region s2cell.Region) []Announcement {
	cells := s2cell.Covering(region, c.MaxLevel, 1024)
	unique, index := c.ancestorSet(cells)
	perCell := c.lookupCells(ctx, unique)
	// Assemble in the deterministic order of the sequential loop: covering
	// cells in order, each walking its ancestor chain finest-first.
	var out []Announcement
	for _, cell := range cells {
		for level := cell.Level(); level >= c.MinLevel; level-- {
			out = append(out, perCell[index[cell.Parent(level)]]...)
		}
	}
	out = dedupAnnouncements(out)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].URL < out[j].URL
	})
	return out
}

// ancestorSet expands cells to their ancestor chains down to MinLevel,
// deduplicated (covering cells share most coarse ancestors), returning the
// unique cells and an index for reassembly.
func (c *Client) ancestorSet(cells []s2cell.CellID) ([]s2cell.CellID, map[s2cell.CellID]int) {
	index := make(map[s2cell.CellID]int)
	var unique []s2cell.CellID
	for _, cell := range cells {
		for level := cell.Level(); level >= c.MinLevel; level-- {
			parent := cell.Parent(level)
			if _, ok := index[parent]; ok {
				continue
			}
			index[parent] = len(unique)
			unique = append(unique, parent)
		}
	}
	return unique, index
}

// DiscoverAlongPathCtx discovers servers along a polyline (the routing flow
// of §5.2: "discovers all the map servers that lie along the way"),
// sampling every sampleMeters. The sample points' ancestor-chain lookups
// are batched into one bounded concurrent sweep instead of one sequential
// discovery per sample.
func (c *Client) DiscoverAlongPathCtx(ctx context.Context, path []geo.LatLng, sampleMeters float64) []Announcement {
	if sampleMeters <= 0 {
		sampleMeters = 100
	}
	var samples []geo.LatLng
	for i, p := range path {
		samples = append(samples, p)
		if i+1 < len(path) {
			d := geo.DistanceMeters(p, path[i+1])
			steps := int(d / sampleMeters)
			for s := 1; s <= steps; s++ {
				samples = append(samples, geo.Interpolate(p, path[i+1], float64(s)/float64(steps+1)))
			}
		}
	}
	// Leaves at MaxLevel, finest-first per sample, deduped across samples.
	var leaves []s2cell.CellID
	for _, ll := range samples {
		leaves = append(leaves, s2cell.FromLatLng(ll).Parent(c.MaxLevel))
	}
	unique, index := c.ancestorSet(leaves)
	perCell := c.lookupCells(ctx, unique)
	var out []Announcement
	for _, leaf := range leaves {
		for level := leaf.Level(); level >= c.MinLevel; level-- {
			out = append(out, perCell[index[leaf.Parent(level)]]...)
		}
	}
	return dedupAnnouncements(out)
}
