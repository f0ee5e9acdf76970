package discovery

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"openflame/internal/dns"
	"openflame/internal/geo"
	"openflame/internal/s2cell"
	"openflame/internal/wire"
)

// TestLeaseRenewalIsFree: an identical re-announcement refreshes the lease
// without touching the epoch or the zone — periodic renewals must not
// churn client caches — while any real change still re-registers.
func TestLeaseRenewalIsFree(t *testing.T) {
	f := newFixture(t)
	at := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	cov := coverageFor(at, 40)
	info := wire.Info{Name: "s", Coverage: cov, Services: []wire.Service{wire.SvcSearch}}
	if err := f.registry.Register(info, "http://s"); err != nil {
		t.Fatal(err)
	}
	if got := f.registry.Epoch(); got != 1 {
		t.Fatalf("epoch after register = %d", got)
	}
	for i := 0; i < 3; i++ {
		if err := f.registry.Register(info, "http://s"); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.registry.Epoch(); got != 1 {
		t.Fatalf("identical re-announces advanced the epoch to %d", got)
	}
	// A real change (new URL) is a re-registration, not a renewal.
	if err := f.registry.Register(info, "http://s-new"); err != nil {
		t.Fatal(err)
	}
	if got := f.registry.Epoch(); got != 2 {
		t.Fatalf("epoch after URL change = %d", got)
	}
}

// TestExpireLeasesEvictsSilentMembers: a member that keeps renewing stays;
// one that goes silent past the TTL is evicted exactly like an explicit
// Unregister — records removed, epoch advanced, survivors re-stamped — so
// a SIGKILL'd server leaves the federation instead of being advertised
// forever.
func TestExpireLeasesEvictsSilentMembers(t *testing.T) {
	f := newFixture(t)
	now := time.Unix(1000, 0)
	f.registry.LeaseTTL = time.Minute
	f.registry.Now = func() time.Time { return now }

	at := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	covA := coverageFor(at, 40)
	covB := coverageFor(geo.Offset(at, 500, 90), 40)
	if err := f.registry.Register(wire.Info{Name: "alive", Coverage: covA}, "http://alive"); err != nil {
		t.Fatal(err)
	}
	if err := f.registry.Register(wire.Info{Name: "silent", Coverage: covB}, "http://silent"); err != nil {
		t.Fatal(err)
	}
	epoch := f.registry.Epoch()

	// Half a TTL in, "alive" renews; nothing is expirable yet.
	now = now.Add(30 * time.Second)
	if err := f.registry.Register(wire.Info{Name: "alive", Coverage: covA}, "http://alive"); err != nil {
		t.Fatal(err)
	}
	if evicted := f.registry.ExpireLeases(); len(evicted) != 0 {
		t.Fatalf("early eviction: %v", evicted)
	}

	// Past "silent"'s TTL: only it is evicted; the epoch advances once.
	now = now.Add(45 * time.Second)
	evicted := f.registry.ExpireLeases()
	if len(evicted) != 1 || evicted[0] != "silent" {
		t.Fatalf("evicted = %v, want [silent]", evicted)
	}
	if got := f.registry.Epoch(); got != epoch+1 {
		t.Fatalf("epoch after eviction = %d, want %d", got, epoch+1)
	}
	if members := f.registry.Members(); len(members) != 1 || members[0] != "alive" {
		t.Fatalf("members = %v", members)
	}
	// The evicted member's records are gone; discovery finds only the
	// survivor, whose records carry the new epoch.
	f.client.AnnouncementTTL = 0
	if got := f.client.Discover(geo.Offset(at, 500, 90)); len(got) != 0 {
		t.Fatalf("evicted member still discoverable: %+v", got)
	}
	got := f.client.Discover(at)
	if len(got) != 1 || got[0].Name != "alive" {
		t.Fatalf("survivor discovery = %+v", got)
	}
	if got[0].Epoch != epoch+1 {
		t.Fatalf("survivor record epoch = %d, want %d", got[0].Epoch, epoch+1)
	}
	// Idempotent: a second sweep finds nothing.
	if evicted := f.registry.ExpireLeases(); len(evicted) != 0 {
		t.Fatalf("second sweep evicted %v", evicted)
	}
}

// TestExpireLeasesDisabledByDefault: without a LeaseTTL the registry keeps
// silent members forever (the pre-lease contract).
func TestExpireLeasesDisabledByDefault(t *testing.T) {
	f := newFixture(t)
	now := time.Unix(1000, 0)
	f.registry.Now = func() time.Time { return now }
	at := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	if err := f.registry.Register(wire.Info{Name: "s", Coverage: coverageFor(at, 40)}, "http://s"); err != nil {
		t.Fatal(err)
	}
	now = now.Add(24 * time.Hour)
	if evicted := f.registry.ExpireLeases(); evicted != nil {
		t.Fatalf("lease-less registry evicted %v", evicted)
	}
	if members := f.registry.Members(); len(members) != 1 {
		t.Fatalf("members = %v", members)
	}
}

// TestAdminRespondsLeaseTTL: the admin API advertises the lease so servers
// can sanity-check their re-announce cadence against it.
func TestAdminRespondsLeaseTTL(t *testing.T) {
	f := newFixture(t)
	f.registry.LeaseTTL = 90 * time.Second
	ts := httptest.NewServer(RegistryHandler(f.registry))
	defer ts.Close()
	at := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	body, err := json.Marshal(RegisterRequest{
		Info: wire.Info{Name: "s", Coverage: coverageFor(at, 40)}, URL: "http://s",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+"/v1/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var resp MembershipResponse
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.LeaseTTLSeconds != 90 {
		t.Fatalf("LeaseTTLSeconds = %v, want 90", resp.LeaseTTLSeconds)
	}
	if !strings.Contains(strings.Join(resp.Members, ","), "s") {
		t.Fatalf("members = %v", resp.Members)
	}
}

// TestRegistryAncestorsExist: after every step of a random run of
// registrations, unregistrations and lease expiries, each cell a live member
// announces on answers its TXT records, and every ancestor of that cell
// exists in the zone — Answer, or NoData as an empty non-terminal — never
// NXDOMAIN, which a resolver applying RFC 8020 would take to deny the
// registrations below it. A cell announced earlier but by no live member
// now, with nothing announced below it, answers NXDOMAIN.
func TestRegistryAncestorsExist(t *testing.T) {
	f := newFixture(t)
	now := time.Unix(1000, 0)
	f.registry.LeaseTTL = time.Minute
	f.registry.Now = func() time.Time { return now }
	rng := rand.New(rand.NewSource(5))
	base := geo.LatLng{Lat: 40.4415, Lng: -79.9955}
	infos := make(map[string]wire.Info)
	ever := make(map[string]bool) // every cell domain ever announced on
	for step := 0; step < 60; step++ {
		name := fmt.Sprintf("s%d", rng.Intn(5))
		switch rng.Intn(4) {
		case 0, 1:
			at := geo.Offset(base, rng.Float64()*3000, rng.Float64()*360)
			info := wire.Info{Name: name, Coverage: coverageFor(at, 20+rng.Float64()*150),
				Services: []wire.Service{wire.SvcSearch}}
			if err := f.registry.Register(info, "http://"+name); err != nil {
				t.Fatal(err)
			}
			infos[name] = info
		case 2:
			f.registry.UnregisterServer(name)
		default:
			now = now.Add(time.Duration(rng.Intn(40)) * time.Second)
			f.registry.ExpireLeases()
		}

		live := make(map[string]bool)
		for _, member := range f.registry.Members() {
			for _, tok := range infos[member].Coverage {
				live[CellDomain(s2cell.FromToken(tok), DefaultSuffix)] = true
			}
		}
		exists := make(map[string]bool)
		for domain := range live {
			ever[domain] = true
			if res, answers, _, _ := f.locZone.Lookup(domain, dns.TypeTXT); res != dns.Answer || len(answers) == 0 {
				t.Fatalf("step %d: announced cell %s answers %v", step, domain, res)
			}
			for a := domain; a != DefaultSuffix; a = dns.ParentName(a) {
				exists[a] = true
				if res, _, _, _ := f.locZone.Lookup(a, dns.TypeTXT); res != dns.Answer && res != dns.NoData {
					t.Fatalf("step %d: %s, an ancestor of announced cell %s, answers %v", step, a, domain, res)
				}
			}
		}
		for domain := range ever {
			if exists[domain] {
				continue
			}
			if res, _, _, _ := f.locZone.Lookup(domain, dns.TypeTXT); res != dns.NXDomain {
				t.Fatalf("step %d: cell %s, announced by no live member, answers %v", step, domain, res)
			}
		}
	}
}
