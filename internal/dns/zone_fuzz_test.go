package dns

import (
	"net"
	"strings"
	"testing"
)

// zoneFuzzApex roots the fuzzed zone; zoneFuzzNames is every name the
// fuzzer writes or queries: the apex and the labels a, b, c nested up to
// four deep below it.
const zoneFuzzApex = "z."

var zoneFuzzNames = func() []string {
	names := []string{zoneFuzzApex}
	level := []string{zoneFuzzApex}
	for depth := 0; depth < 4; depth++ {
		var next []string
		for _, parent := range level {
			for _, l := range []string{"a", "b", "c"} {
				next = append(next, l+"."+parent)
			}
		}
		names = append(names, next...)
		level = next
	}
	return names
}()

// modelRR is one record of the brute-force model: owner, type and the TTL
// that tells records apart.
type modelRR struct {
	name string
	typ  uint16
	ttl  uint32
}

// FuzzZoneLookup applies a byte-driven sequence of Add, Remove and
// RemoveWhere calls (TXT and A records over a fixed name tree) to a Zone and
// to a list of records, then checks every name's Lookup against the RFC
// 1034 §4.3.2 / RFC 8020 rule computed by brute force: a name holding
// records of the type answers them, in insertion order; a name that is
// not — but it or a descendant holds some record — answers NODATA; any
// other name answers NXDOMAIN. The removal counts must match too. Each op
// takes three bytes: kind, name, and a type-and-TTL byte. Seeds: the
// empty non-terminal left by a deep record, and a RemoveWhere that empties
// a name; they run as ordinary tests under `go test`.
func FuzzZoneLookup(f *testing.F) {
	f.Add([]byte{0, 40, 2})                     // one deep TXT: its ancestors are ENTs
	f.Add([]byte{0, 40, 2, 2, 40, 2})           // ... then RemoveWhere empties it
	f.Add([]byte{0, 40, 3, 0, 13, 4, 1, 40, 3}) // A at a descendant, TXT above, Remove
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, ops []byte) {
		z := NewZone(zoneFuzzApex)
		var model []modelRR
		for i := 0; i+2 < len(ops); i += 3 {
			name := zoneFuzzNames[int(ops[i+1])%len(zoneFuzzNames)]
			typ, ttl := TypeTXT, uint32(ops[i+2]>>1)
			if ops[i+2]&1 == 1 {
				typ = TypeA
			}
			switch ops[i] % 3 {
			case 0:
				rr := RR{Name: name, Type: typ, TTL: ttl}
				if typ == TypeA {
					rr.IP = net.IPv4(10, 0, 0, byte(ttl))
				} else {
					rr.TXT = []string{"x"}
				}
				if err := z.Add(rr); err != nil {
					t.Fatalf("Add %s: %v", name, err)
				}
				model = append(model, modelRR{name, typ, ttl})
			case 1:
				n := z.Remove(name, typ)
				kept := model[:0]
				for _, r := range model {
					if r.name != name || r.typ != typ {
						kept = append(kept, r)
					}
				}
				if want := len(model) - len(kept); n != want {
					t.Fatalf("Remove %s: removed %d, model %d", name, n, want)
				}
				model = kept
			case 2:
				// Keep the records whose TTL is below the op's own.
				keep := func(r RR) bool { return r.TTL < ttl }
				n := z.RemoveWhere(name, typ, keep)
				kept := model[:0]
				for _, r := range model {
					if r.name != name || r.typ != typ || r.ttl < ttl {
						kept = append(kept, r)
					}
				}
				if want := len(model) - len(kept); n != want {
					t.Fatalf("RemoveWhere %s: removed %d, model %d", name, n, want)
				}
				model = kept
			}
		}
		for _, name := range zoneFuzzNames {
			// The apex holds the SOA, so it always exists.
			exists := name == zoneFuzzApex
			for _, r := range model {
				if r.name == name || strings.HasSuffix(r.name, "."+name) {
					exists = true
				}
			}
			for _, typ := range []uint16{TypeTXT, TypeA} {
				var want []uint32
				for _, r := range model {
					if r.name == name && r.typ == typ {
						want = append(want, r.ttl)
					}
				}
				res, answers, _, _ := z.Lookup(name, typ)
				switch {
				case len(want) > 0:
					if res != Answer || len(answers) != len(want) {
						t.Fatalf("%s type %d: res %v with %d answers, model %d records", name, typ, res, len(answers), len(want))
					}
					for k, a := range answers {
						if a.TTL != want[k] {
							t.Fatalf("%s type %d: answer %d has TTL %d, model %d", name, typ, k, a.TTL, want[k])
						}
					}
				case exists:
					if res != NoData {
						t.Fatalf("%s type %d: res %v, model NoData", name, typ, res)
					}
				default:
					if res != NXDomain {
						t.Fatalf("%s type %d: res %v, model NXDomain", name, typ, res)
					}
				}
			}
		}
	})
}
