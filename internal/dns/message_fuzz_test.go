package dns

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzUnpack throws hostile bytes at Unpack, the parser every resolver
// reply and every server query goes through. Unpack must not panic, and a
// message it accepts must survive Pack: the repack parses with the same
// section counts and CanonicalName-equal names, and a second Pack∘Unpack
// round changes no byte. The one normalisation the first round may make
// to a record is class 0 → IN. Seeds: a TXT answer as the resolver
// receives one, a referral whose names compress, truncations of both, and
// an empty buffer; they run as ordinary tests under `go test`.
func FuzzUnpack(f *testing.F) {
	z := testZone(f)
	for _, q := range []Question{
		{Name: "a.loc.flame.arpa.", Type: TypeTXT, Class: ClassIN},
		{Name: "x.sub.loc.flame.arpa.", Type: TypeTXT, Class: ClassIN},
	} {
		seed, err := HandleQuery(z, &Message{ID: 7, Questions: []Question{q}}).Pack()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-1])
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m1, err := Unpack(data)
		if err != nil {
			return
		}
		b1, err := m1.Pack()
		if !packable(m1) {
			if err == nil {
				t.Fatalf("Pack accepted a message it cannot represent: %+v", m1)
			}
			return
		}
		if err != nil {
			t.Fatalf("accepted message does not re-pack: %v\n%+v", err, m1)
		}
		m2, err := Unpack(b1)
		if err != nil {
			t.Fatalf("repack does not parse: %v", err)
		}
		sameMessage(t, m1, m2)
		b2, err := m2.Pack()
		if err != nil {
			t.Fatalf("second Pack: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("Pack∘Unpack not a fixed point after one round:\n%x\n%x", b1, b2)
		}
	})
}

// packable reports whether Pack can represent m: every record of a type
// Pack builds, and every name one whose dotted, canonical form is a valid
// name. Unpack skips the rdata of other types, and a name may begin or
// end with whitespace, which the canonical form trims (Unpack itself
// refuses a label holding a dot).
func packable(m *Message) bool {
	for _, q := range m.Questions {
		if !validName(q.Name) {
			return false
		}
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, r := range sec {
			if !validName(r.Name) {
				return false
			}
			switch r.Type {
			case TypeA, TypeAAAA, TypeTXT:
			case TypeNS, TypeCNAME:
				if !validName(r.Target) {
					return false
				}
			case TypeSRV:
				if !validName(r.SRV.Target) {
					return false
				}
			case TypeSOA:
				if !validName(r.SOA.MName) || !validName(r.SOA.RName) {
					return false
				}
			default:
				return false
			}
		}
	}
	return true
}

// validName reports whether name's canonical form has 1–63-byte labels and
// at most 255 bytes.
func validName(name string) bool {
	c := CanonicalName(name)
	if c == "." {
		return true
	}
	if len(c) > 255 {
		return false
	}
	for _, l := range strings.Split(c[:len(c)-1], ".") {
		if len(l) == 0 || len(l) > 63 {
			return false
		}
	}
	return true
}

// sameMessage fails t unless b, the repack of a, has a's header, section
// counts and records, names compared by CanonicalName.
func sameMessage(t *testing.T, a, b *Message) {
	t.Helper()
	if a.ID != b.ID || a.Response != b.Response || a.Opcode != b.Opcode ||
		a.Authoritative != b.Authoritative || a.Truncated != b.Truncated ||
		a.RecursionDesired != b.RecursionDesired || a.RecursionAvailable != b.RecursionAvailable ||
		a.Rcode != b.Rcode {
		t.Fatalf("header changed: %+v → %+v", a, b)
	}
	if len(a.Questions) != len(b.Questions) || len(a.Answers) != len(b.Answers) ||
		len(a.Authority) != len(b.Authority) || len(a.Additional) != len(b.Additional) {
		t.Fatalf("section counts changed: %d/%d/%d/%d → %d/%d/%d/%d",
			len(a.Questions), len(a.Answers), len(a.Authority), len(a.Additional),
			len(b.Questions), len(b.Answers), len(b.Authority), len(b.Additional))
	}
	sameName := func(what, x, y string) {
		if CanonicalName(x) != CanonicalName(y) {
			t.Fatalf("%s changed: %q → %q", what, x, y)
		}
	}
	sameClass := func(x, y uint16) {
		if x != y && !(x == 0 && y == ClassIN) {
			t.Fatalf("class changed: %d → %d", x, y)
		}
	}
	for i, q := range a.Questions {
		sameName("question name", q.Name, b.Questions[i].Name)
		sameClass(q.Class, b.Questions[i].Class)
		if q.Type != b.Questions[i].Type {
			t.Fatalf("question type changed: %d → %d", q.Type, b.Questions[i].Type)
		}
	}
	for s, sec := range [][]RR{a.Answers, a.Authority, a.Additional} {
		other := [][]RR{b.Answers, b.Authority, b.Additional}[s]
		for i, x := range sec {
			y := other[i]
			sameName("owner name", x.Name, y.Name)
			sameClass(x.Class, y.Class)
			if x.Type != y.Type || x.TTL != y.TTL {
				t.Fatalf("record %s changed: %v → %v", x.Name, x, y)
			}
			switch x.Type {
			case TypeNS, TypeCNAME:
				sameName("target", x.Target, y.Target)
			case TypeSRV:
				sameName("SRV target", x.SRV.Target, y.SRV.Target)
			case TypeSOA:
				sameName("SOA mname", x.SOA.MName, y.SOA.MName)
				sameName("SOA rname", x.SOA.RName, y.SOA.RName)
			}
		}
	}
}
