package dns

import (
	"errors"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCanonicalName(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Example.COM", "example.com."},
		{"example.com.", "example.com."},
		{"", "."},
		{".", "."},
		{" a.b ", "a.b."},
	}
	for _, tt := range tests {
		if got := CanonicalName(tt.in); got != tt.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestParentName(t *testing.T) {
	tests := []struct{ in, want string }{
		{"a.b.c.", "b.c."},
		{"b.c.", "c."},
		{"c.", "."},
		{".", "."},
	}
	for _, tt := range tests {
		if got := ParentName(tt.in); got != tt.want {
			t.Errorf("ParentName(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestIsSubdomain(t *testing.T) {
	if !IsSubdomain("flame.arpa.", "a.b.flame.arpa.") {
		t.Error("subdomain not detected")
	}
	if !IsSubdomain("flame.arpa.", "flame.arpa.") {
		t.Error("self not subdomain")
	}
	if IsSubdomain("flame.arpa.", "notflame.arpa.") {
		t.Error("suffix-collision false positive")
	}
	if !IsSubdomain(".", "anything.example.") {
		t.Error("root should contain everything")
	}
}

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	wire, err := m.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	return got
}

func TestPackUnpackQuery(t *testing.T) {
	m := &Message{
		ID:               1234,
		RecursionDesired: true,
		Questions:        []Question{{Name: "q0.q1.f2.loc.flame.arpa.", Type: TypeTXT, Class: ClassIN}},
	}
	got := roundTrip(t, m)
	if got.ID != 1234 || !got.RecursionDesired || got.Response {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Questions) != 1 || got.Questions[0] != m.Questions[0] {
		t.Fatalf("question mismatch: %+v", got.Questions)
	}
}

func TestPackUnpackAllRecordTypes(t *testing.T) {
	m := &Message{
		ID: 7, Response: true, Authoritative: true,
		Questions: []Question{{Name: "example.org.", Type: TypeA, Class: ClassIN}},
		Answers: []RR{
			{Name: "example.org.", Type: TypeA, Class: ClassIN, TTL: 300, IP: net.IPv4(10, 1, 2, 3)},
			{Name: "example.org.", Type: TypeAAAA, Class: ClassIN, TTL: 300, IP: net.ParseIP("fd00::1")},
			{Name: "alias.example.org.", Type: TypeCNAME, Class: ClassIN, TTL: 60, Target: "example.org."},
			{Name: "example.org.", Type: TypeTXT, Class: ClassIN, TTL: 120, TXT: []string{"v=flame1", "url=http://x"}},
			{Name: "_flame._tcp.example.org.", Type: TypeSRV, Class: ClassIN, TTL: 60,
				SRV: &SRVData{Priority: 1, Weight: 2, Port: 8080, Target: "srv.example.org."}},
		},
		Authority: []RR{
			{Name: "example.org.", Type: TypeSOA, Class: ClassIN, TTL: 3600,
				SOA: &SOAData{MName: "ns.example.org.", RName: "admin.example.org.",
					Serial: 9, Refresh: 7200, Retry: 900, Expire: 86400, Minimum: 300}},
			{Name: "sub.example.org.", Type: TypeNS, Class: ClassIN, TTL: 3600, Target: "ns.sub.example.org."},
		},
		Additional: []RR{
			{Name: "ns.sub.example.org.", Type: TypeA, Class: ClassIN, TTL: 3600, IP: net.IPv4(127, 0, 0, 1)},
		},
	}
	got := roundTrip(t, m)
	if len(got.Answers) != 5 || len(got.Authority) != 2 || len(got.Additional) != 1 {
		t.Fatalf("section sizes: %d %d %d", len(got.Answers), len(got.Authority), len(got.Additional))
	}
	if !got.Answers[0].IP.Equal(net.IPv4(10, 1, 2, 3)) {
		t.Errorf("A mismatch: %v", got.Answers[0].IP)
	}
	if !got.Answers[1].IP.Equal(net.ParseIP("fd00::1")) {
		t.Errorf("AAAA mismatch: %v", got.Answers[1].IP)
	}
	if got.Answers[2].Target != "example.org." {
		t.Errorf("CNAME mismatch: %v", got.Answers[2].Target)
	}
	if !reflect.DeepEqual(got.Answers[3].TXT, []string{"v=flame1", "url=http://x"}) {
		t.Errorf("TXT mismatch: %v", got.Answers[3].TXT)
	}
	srv := got.Answers[4].SRV
	if srv == nil || srv.Port != 8080 || srv.Target != "srv.example.org." {
		t.Errorf("SRV mismatch: %+v", srv)
	}
	soa := got.Authority[0].SOA
	if soa == nil || soa.Serial != 9 || soa.Minimum != 300 {
		t.Errorf("SOA mismatch: %+v", soa)
	}
	if got.Authority[1].Target != "ns.sub.example.org." {
		t.Errorf("NS mismatch: %v", got.Authority[1].Target)
	}
}

func TestNameCompressionShrinksMessage(t *testing.T) {
	// Many records sharing a suffix should compress well.
	m := &Message{ID: 1, Response: true,
		Questions: []Question{{Name: "a.very.long.shared.suffix.flame.arpa.", Type: TypeTXT, Class: ClassIN}}}
	for i := 0; i < 10; i++ {
		m.Answers = append(m.Answers, RR{
			Name: "a.very.long.shared.suffix.flame.arpa.", Type: TypeTXT, Class: ClassIN,
			TTL: 60, TXT: []string{"x"},
		})
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	uncompressedName := len("a.very.long.shared.suffix.flame.arpa.") + 1
	if len(wire) > 12+uncompressedName+4+10*(2+10+3)+60 {
		t.Fatalf("message too large for compressed encoding: %d bytes", len(wire))
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range got.Answers {
		if a.Name != "a.very.long.shared.suffix.flame.arpa." {
			t.Fatalf("decompressed name %q", a.Name)
		}
	}
}

func TestPackRejectsBadRecords(t *testing.T) {
	longLabel := strings.Repeat("a", 64)
	cases := []*Message{
		{Questions: []Question{{Name: longLabel + ".x.", Type: TypeA}}},
		{Answers: []RR{{Name: "x.", Type: TypeA, IP: net.ParseIP("fd00::1")}}}, // v6 in A
		{Answers: []RR{{Name: "x.", Type: TypeSRV}}},                           // missing SRV data
		{Answers: []RR{{Name: "x.", Type: TypeSOA}}},                           // missing SOA data
		{Answers: []RR{{Name: "x.", Type: TypeTXT, TXT: []string{strings.Repeat("y", 256)}}}},
	}
	for i, m := range cases {
		if _, err := m.Pack(); err == nil {
			t.Errorf("case %d: Pack succeeded, want error", i)
		}
	}
}

func TestUnpackTruncatedInput(t *testing.T) {
	m := &Message{ID: 5, Questions: []Question{{Name: "a.b.c.", Type: TypeA, Class: ClassIN}}}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(wire); cut++ {
		if _, err := Unpack(wire[:cut]); err == nil {
			// Cutting exactly at the header boundary with zero counts is
			// the only prefix that can legally parse.
			if cut != 12 {
				t.Fatalf("Unpack of %d-byte prefix succeeded", cut)
			}
		}
	}
}

func TestUnpackPointerLoop(t *testing.T) {
	// Header + a name that is a pointer to itself.
	buf := make([]byte, 14)
	buf[4] = 0 // QDCOUNT low byte set below
	buf[5] = 1
	buf[12] = 0xC0
	buf[13] = 12
	if _, err := Unpack(buf); err == nil {
		t.Fatal("self-referential pointer accepted")
	}
}

func TestNameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	labelChars := "abcdefghijklmnopqrstuvwxyz0123456789-"
	f := func() bool {
		nLabels := 1 + rng.Intn(5)
		labels := make([]string, nLabels)
		for i := range labels {
			l := 1 + rng.Intn(20)
			b := make([]byte, l)
			for j := range b {
				b[j] = labelChars[rng.Intn(len(labelChars))]
			}
			labels[i] = string(b)
		}
		name := CanonicalName(strings.Join(labels, "."))
		m := &Message{ID: 1, Questions: []Question{{Name: name, Type: TypeTXT, Class: ClassIN}}}
		wire, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(wire)
		if err != nil {
			return false
		}
		return got.Questions[0].Name == name
	}
	if err := quick.Check(func(uint8) bool { return f() }, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRRString(t *testing.T) {
	rr := RR{Name: "x.y.", Type: TypeA, TTL: 60, IP: net.IPv4(1, 2, 3, 4)}
	if s := rr.String(); !strings.Contains(s, "1.2.3.4") || !strings.Contains(s, "A") {
		t.Errorf("String = %q", s)
	}
	txt := RR{Name: "x.y.", Type: TypeTXT, TTL: 60, TXT: []string{"hello"}}
	if s := txt.String(); !strings.Contains(s, "hello") {
		t.Errorf("String = %q", s)
	}
}

// An empty label is refused in every name Pack writes, the uncompressed
// SRV target included: packed, "a..b." ends the name at its empty label
// and leaves bytes the message's own Unpack rejects, and a trailing empty
// label ("b..") used to be dropped silently.
func TestPackRejectsEmptyLabelInEveryName(t *testing.T) {
	for _, bad := range []string{"a..b.", "b.."} {
		for i, m := range []*Message{
			{Questions: []Question{{Name: bad, Type: TypeA}}},
			{Answers: []RR{{Name: bad, Type: TypeTXT, TXT: []string{"x"}}}},
			{Answers: []RR{{Name: "x.", Type: TypeNS, Target: bad}}},
			{Answers: []RR{{Name: "x.", Type: TypeSOA, SOA: &SOAData{MName: bad, RName: "r."}}}},
			{Answers: []RR{{Name: "x.", Type: TypeSRV, SRV: &SRVData{Port: 80, Target: bad}}}},
		} {
			if _, err := m.Pack(); !errors.Is(err, ErrBadName) {
				t.Errorf("%q case %d: Pack error = %v, want ErrBadName", bad, i, err)
			}
		}
	}
}

// A label holding a dot byte is refused: unpacked, the 3-byte label "a.b"
// used to read back as the two-label name "a.b.", so the name a packet
// carried and the name a zone looked up could differ.
func TestUnpackRejectsDottedLabel(t *testing.T) {
	buf := []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0} // header, QDCOUNT 1
	buf = append(buf, 3, 'a', '.', 'b', 0)            // the label "a.b"
	buf = append(buf, 0, byte(TypeA), 0, byte(ClassIN))
	if m, err := Unpack(buf); !errors.Is(err, ErrBadName) {
		t.Fatalf("Unpack = %+v, %v; want ErrBadName", m, err)
	}
	// The same bytes with an ordinary label parse.
	buf[14] = 'x'
	if _, err := Unpack(buf); err != nil {
		t.Fatalf("Unpack of the label \"axb\": %v", err)
	}
}
