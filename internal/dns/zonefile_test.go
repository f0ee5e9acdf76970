package dns

import (
	"strings"
	"testing"
)

const sampleZoneFile = `
; OpenFLAME spatial zone
q1.q2.f2.loc.flame.arpa. TXT v=flame1 name=my-map url=http://host:8080
q3.q2.f2.loc.flame.arpa. 120 TXT v=flame1 name=other url=http://other:8080
sub.loc.flame.arpa.      NS  ns.sub.loc.flame.arpa.
ns.sub.loc.flame.arpa.   A   10.0.0.9
ns.sub.loc.flame.arpa.   SRV 5353
v6.loc.flame.arpa.       AAAA fd00::1
alias.loc.flame.arpa.    CNAME q1.q2.f2.loc.flame.arpa.
`

func TestParseZoneRecords(t *testing.T) {
	z := NewZone("loc.flame.arpa.")
	n, err := ParseZoneRecords(z, strings.NewReader(sampleZoneFile))
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("added %d records", n)
	}
	res, answers, _, _ := z.Lookup("q1.q2.f2.loc.flame.arpa.", TypeTXT)
	if res != Answer || len(answers) != 1 {
		t.Fatalf("TXT lookup: %v %v", res, answers)
	}
	if answers[0].TXT[0] != "v=flame1 name=my-map url=http://host:8080" {
		t.Fatalf("TXT = %q", answers[0].TXT[0])
	}
	// Explicit TTL honoured.
	_, answers, _, _ = z.Lookup("q3.q2.f2.loc.flame.arpa.", TypeTXT)
	if answers[0].TTL != 120 {
		t.Fatalf("TTL = %d", answers[0].TTL)
	}
	// SRV target defaults to the owner name.
	res, _, auth, glue := z.Lookup("x.sub.loc.flame.arpa.", TypeTXT)
	if res != Delegation || len(auth) != 1 {
		t.Fatalf("delegation: %v %v", res, auth)
	}
	var sawSRV bool
	for _, g := range glue {
		if g.Type == TypeSRV && g.SRV.Port == 5353 {
			sawSRV = true
		}
	}
	if !sawSRV {
		t.Fatalf("SRV glue missing: %v", glue)
	}
}

func TestParseRecordLineErrors(t *testing.T) {
	bad := []string{
		"",
		"name.only.",
		"x.loc. A not-an-ip",
		"x.loc. A fd00::1", // v6 in A
		"x.loc. AAAA nope",
		"x.loc. SRV notaport",
		"x.loc. MX 10 mail.example.",
		"x.loc. 60", // ttl but no type/value
	}
	for _, line := range bad {
		if _, err := ParseRecordLine(line); err == nil {
			t.Errorf("ParseRecordLine(%q) accepted", line)
		}
	}
}

func TestParseZoneRecordsRejectsOutOfZone(t *testing.T) {
	z := NewZone("loc.flame.arpa.")
	_, err := ParseZoneRecords(z, strings.NewReader("evil.example.com. A 1.2.3.4\n"))
	if err == nil {
		t.Fatal("out-of-zone record accepted")
	}
}

func TestAllRecordsIncludesDelegations(t *testing.T) {
	z := NewZone("loc.flame.arpa.")
	if _, err := ParseZoneRecords(z, strings.NewReader(sampleZoneFile)); err != nil {
		t.Fatal(err)
	}
	var sawNS, sawSOA bool
	for _, rr := range z.AllRecords() {
		switch rr.Type {
		case TypeNS:
			sawNS = true
		case TypeSOA:
			sawSOA = true
		}
	}
	if !sawNS {
		t.Fatal("NS record missing from AllRecords")
	}
	if !sawSOA {
		t.Fatal("SOA missing from AllRecords (it should be included)")
	}
}
