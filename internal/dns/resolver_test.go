package dns

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// buildTree builds a three-level DNS tree on a MemExchanger:
//
//	root zone "flame.arpa."       at addr "10.0.0.1:53"
//	  └─ "loc.flame.arpa."        at addr "10.0.0.2:53"
//	       └─ "org.loc.flame.arpa." at addr "10.0.0.3:5353" (SRV glue)
func buildTree(t testing.TB) (*MemExchanger, []RootHint) {
	t.Helper()
	mem := NewMemExchanger()

	root := NewZone("flame.arpa.")
	mid := NewZone("loc.flame.arpa.")
	leafZ := NewZone("org.loc.flame.arpa.")

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Root delegates loc.flame.arpa.
	must(root.Add(RR{Name: "loc.flame.arpa.", Type: TypeNS, TTL: 300, Target: "ns.loc.flame.arpa."}))
	must(root.Add(RR{Name: "ns.loc.flame.arpa.", Type: TypeA, TTL: 300, IP: net.IPv4(10, 0, 0, 2)}))
	// Mid delegates org.loc.flame.arpa with SRV glue carrying a custom port.
	must(mid.Add(RR{Name: "org.loc.flame.arpa.", Type: TypeNS, TTL: 300, Target: "ns.org.loc.flame.arpa."}))
	must(mid.Add(RR{Name: "ns.org.loc.flame.arpa.", Type: TypeA, TTL: 300, IP: net.IPv4(10, 0, 0, 3)}))
	must(mid.Add(RR{Name: "ns.org.loc.flame.arpa.", Type: TypeSRV, TTL: 300,
		SRV: &SRVData{Port: 5353, Target: "ns.org.loc.flame.arpa."}}))
	// Leaf data.
	must(leafZ.Add(RR{Name: "cell.org.loc.flame.arpa.", Type: TypeTXT, TTL: 60,
		TXT: []string{"v=flame1 url=http://mapserver.org"}}))
	must(leafZ.Add(RR{Name: "cname.org.loc.flame.arpa.", Type: TypeCNAME, TTL: 60,
		Target: "cell.org.loc.flame.arpa."}))

	mem.Register("10.0.0.1:53", root)
	mem.Register("10.0.0.2:53", mid)
	mem.Register("10.0.0.3:5353", leafZ)
	return mem, []RootHint{{Name: "ns.flame.arpa.", Addr: "10.0.0.1:53"}}
}

func TestResolverFollowsDelegations(t *testing.T) {
	mem, roots := buildTree(t)
	r := NewResolver(mem, roots)
	txts, err := r.LookupTXTCtx(context.Background(), "cell.org.loc.flame.arpa.")
	if err != nil {
		t.Fatal(err)
	}
	if len(txts) != 1 || !strings.Contains(txts[0], "mapserver.org") {
		t.Fatalf("TXT = %v", txts)
	}
	// Resolution crossed three servers.
	if got := mem.ExchangeCount(); got != 3 {
		t.Fatalf("exchanges = %d, want 3", got)
	}
}

func TestResolverCachesAnswers(t *testing.T) {
	mem, roots := buildTree(t)
	r := NewResolver(mem, roots)
	if _, err := r.LookupTXTCtx(context.Background(), "cell.org.loc.flame.arpa."); err != nil {
		t.Fatal(err)
	}
	before := mem.ExchangeCount()
	if _, err := r.LookupTXTCtx(context.Background(), "cell.org.loc.flame.arpa."); err != nil {
		t.Fatal(err)
	}
	if got := mem.ExchangeCount(); got != before {
		t.Fatalf("cached lookup made %d upstream queries", got-before)
	}
	st := r.Stats()
	if st.CacheHits == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestResolverCacheSiblingReusesDelegation(t *testing.T) {
	mem, roots := buildTree(t)
	leaf := mem.zones["10.0.0.3:5353"]
	if err := leaf.Add(RR{Name: "cell2.org.loc.flame.arpa.", Type: TypeTXT, TTL: 60, TXT: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	r := NewResolver(mem, roots)
	if _, err := r.LookupTXTCtx(context.Background(), "cell.org.loc.flame.arpa."); err != nil {
		t.Fatal(err)
	}
	before := mem.ExchangeCount()
	// A sibling name under the same delegation needs only one more query.
	if _, err := r.LookupTXTCtx(context.Background(), "cell2.org.loc.flame.arpa."); err != nil {
		t.Fatal(err)
	}
	if got := mem.ExchangeCount() - before; got != 1 {
		t.Fatalf("sibling lookup made %d queries, want 1", got)
	}
}

func TestResolverNXDomainAndNegativeCache(t *testing.T) {
	mem, roots := buildTree(t)
	r := NewResolver(mem, roots)
	_, err := r.LookupTXTCtx(context.Background(), "nothere.org.loc.flame.arpa.")
	if !errors.Is(err, ErrNXDomain) {
		t.Fatalf("err = %v", err)
	}
	before := mem.ExchangeCount()
	_, err = r.LookupTXTCtx(context.Background(), "nothere.org.loc.flame.arpa.")
	if !errors.Is(err, ErrNXDomain) {
		t.Fatalf("second err = %v", err)
	}
	if mem.ExchangeCount() != before {
		t.Fatal("negative answer not cached")
	}
	if r.Stats().NegativeHits == 0 {
		t.Fatal("no negative hits recorded")
	}
}

func TestResolverNoData(t *testing.T) {
	mem, roots := buildTree(t)
	r := NewResolver(mem, roots)
	_, err := r.LookupCtx(context.Background(), "cell.org.loc.flame.arpa.", TypeA)
	if !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v", err)
	}
}

func TestResolverCNAMEChase(t *testing.T) {
	mem, roots := buildTree(t)
	r := NewResolver(mem, roots)
	rrs, err := r.LookupCtx(context.Background(), "cname.org.loc.flame.arpa.", TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	var sawCNAME, sawTXT bool
	for _, rr := range rrs {
		switch rr.Type {
		case TypeCNAME:
			sawCNAME = true
		case TypeTXT:
			sawTXT = true
		}
	}
	if !sawCNAME || !sawTXT {
		t.Fatalf("CNAME chain incomplete: %v", rrs)
	}
}

func TestResolverTTLExpiry(t *testing.T) {
	mem, roots := buildTree(t)
	r := NewResolver(mem, roots)
	now := time.Unix(1000000, 0)
	r.Now = func() time.Time { return now }
	if _, err := r.LookupTXTCtx(context.Background(), "cell.org.loc.flame.arpa."); err != nil {
		t.Fatal(err)
	}
	before := mem.ExchangeCount()
	// Within TTL: cached.
	now = now.Add(30 * time.Second)
	if _, err := r.LookupTXTCtx(context.Background(), "cell.org.loc.flame.arpa."); err != nil {
		t.Fatal(err)
	}
	if mem.ExchangeCount() != before {
		t.Fatal("lookup within TTL hit upstream")
	}
	// Past the 60s record TTL: refetch (delegations have TTL 300 so only
	// the leaf query repeats).
	now = now.Add(31 * time.Second)
	if _, err := r.LookupTXTCtx(context.Background(), "cell.org.loc.flame.arpa."); err != nil {
		t.Fatal(err)
	}
	if got := mem.ExchangeCount() - before; got != 1 {
		t.Fatalf("post-TTL lookup made %d queries, want 1", got)
	}
}

func TestResolverLRUEviction(t *testing.T) {
	mem, roots := buildTree(t)
	leaf := mem.zones["10.0.0.3:5353"]
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("n%d.org.loc.flame.arpa.", i)
		if err := leaf.Add(RR{Name: name, Type: TypeTXT, TTL: 3600, TXT: []string{"x"}}); err != nil {
			t.Fatal(err)
		}
	}
	r := NewResolver(mem, roots)
	r.MaxCacheEntries = 8
	for i := 0; i < 50; i++ {
		if _, err := r.LookupTXTCtx(context.Background(), fmt.Sprintf("n%d.org.loc.flame.arpa.", i)); err != nil {
			t.Fatalf("n%d: %v", i, err)
		}
	}
	if got := r.CacheLen(); got > 8 {
		t.Fatalf("cache grew to %d entries", got)
	}
}

func TestResolverUnreachableServer(t *testing.T) {
	mem := NewMemExchanger()
	r := NewResolver(mem, []RootHint{{Name: "ns.", Addr: "10.9.9.9:53"}})
	if _, err := r.LookupTXTCtx(context.Background(), "anything.example."); err == nil {
		t.Fatal("lookup against dead root succeeded")
	}
}

func TestResolverFlushCache(t *testing.T) {
	mem, roots := buildTree(t)
	r := NewResolver(mem, roots)
	if _, err := r.LookupTXTCtx(context.Background(), "cell.org.loc.flame.arpa."); err != nil {
		t.Fatal(err)
	}
	r.FlushCache()
	before := mem.ExchangeCount()
	if _, err := r.LookupTXTCtx(context.Background(), "cell.org.loc.flame.arpa."); err != nil {
		t.Fatal(err)
	}
	if got := mem.ExchangeCount() - before; got != 3 {
		t.Fatalf("post-flush lookup made %d queries, want 3", got)
	}
}

func TestUDPServerEndToEnd(t *testing.T) {
	z := NewZone("loc.flame.arpa.")
	if err := z.Add(RR{Name: "cell.loc.flame.arpa.", Type: TypeTXT, TTL: 60, TXT: []string{"v=flame1"}}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(z, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ex := UDPExchanger{}
	req := &Message{ID: 99, Questions: []Question{{Name: "cell.loc.flame.arpa.", Type: TypeTXT, Class: ClassIN}}}
	resp, err := ex.ExchangeContext(context.Background(), srv.Addr(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].TXT[0] != "v=flame1" {
		t.Fatalf("answers = %v", resp.Answers)
	}
	if srv.QueryCount() != 1 {
		t.Fatalf("QueryCount = %d", srv.QueryCount())
	}
}

func TestUDPTruncationFallsBackToTCP(t *testing.T) {
	z := NewZone("loc.flame.arpa.")
	// Enough TXT data to exceed 512 bytes.
	for i := 0; i < 10; i++ {
		if err := z.Add(RR{Name: "big.loc.flame.arpa.", Type: TypeTXT, TTL: 60,
			TXT: []string{fmt.Sprintf("record-%d-%s", i, strings.Repeat("x", 100))}}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(z, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ex := UDPExchanger{}
	req := &Message{ID: 7, Questions: []Question{{Name: "big.loc.flame.arpa.", Type: TypeTXT, Class: ClassIN}}}
	resp, err := ex.ExchangeContext(context.Background(), srv.Addr(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated {
		t.Fatal("final response still truncated")
	}
	if len(resp.Answers) != 10 {
		t.Fatalf("got %d answers over TCP, want 10", len(resp.Answers))
	}
}

func TestResolverOverRealSockets(t *testing.T) {
	// Root and leaf zones on real UDP servers; resolver follows the
	// delegation using SRV glue for the ephemeral port.
	leafZone := NewZone("org.loc.flame.arpa.")
	if err := leafZone.Add(RR{Name: "cell.org.loc.flame.arpa.", Type: TypeTXT, TTL: 60, TXT: []string{"hello"}}); err != nil {
		t.Fatal(err)
	}
	leafSrv, err := NewServer(leafZone, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer leafSrv.Close()

	_, portStr, _ := net.SplitHostPort(leafSrv.Addr())
	var port int
	fmt.Sscanf(portStr, "%d", &port)

	rootZone := NewZone("loc.flame.arpa.")
	if err := rootZone.Add(RR{Name: "org.loc.flame.arpa.", Type: TypeNS, TTL: 300, Target: "ns.org.loc.flame.arpa."}); err != nil {
		t.Fatal(err)
	}
	if err := rootZone.Add(RR{Name: "ns.org.loc.flame.arpa.", Type: TypeA, TTL: 300, IP: net.IPv4(127, 0, 0, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := rootZone.Add(RR{Name: "ns.org.loc.flame.arpa.", Type: TypeSRV, TTL: 300,
		SRV: &SRVData{Port: uint16(port), Target: "ns.org.loc.flame.arpa."}}); err != nil {
		t.Fatal(err)
	}
	rootSrv, err := NewServer(rootZone, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rootSrv.Close()

	r := NewResolver(UDPExchanger{}, []RootHint{{Name: "ns.loc.flame.arpa.", Addr: rootSrv.Addr()}})
	txts, err := r.LookupTXTCtx(context.Background(), "cell.org.loc.flame.arpa.")
	if err != nil {
		t.Fatal(err)
	}
	if len(txts) != 1 || txts[0] != "hello" {
		t.Fatalf("TXT = %v", txts)
	}
}

func BenchmarkResolverCachedLookup(b *testing.B) {
	mem, roots := buildTree(b)
	r := NewResolver(mem, roots)
	if _, err := r.LookupTXTCtx(context.Background(), "cell.org.loc.flame.arpa."); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.LookupTXTCtx(context.Background(), "cell.org.loc.flame.arpa."); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResolverColdLookup(b *testing.B) {
	mem, roots := buildTree(b)
	r := NewResolver(mem, roots)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.FlushCache()
		if _, err := r.LookupTXTCtx(context.Background(), "cell.org.loc.flame.arpa."); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPackUnpack(b *testing.B) {
	m := &Message{ID: 1, Response: true,
		Questions: []Question{{Name: "q0.q1.q2.f2.loc.flame.arpa.", Type: TypeTXT, Class: ClassIN}},
		Answers: []RR{{Name: "q0.q1.q2.f2.loc.flame.arpa.", Type: TypeTXT, TTL: 60,
			TXT: []string{"v=flame1 url=http://mapserver.example:8080 srv=geocode,route"}}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire, err := m.Pack()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}
