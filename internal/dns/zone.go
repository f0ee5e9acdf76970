package dns

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Zone is an authoritative zone: an apex name, its records, and NS
// delegations to child zones. Zones are safe for concurrent use.
type Zone struct {
	mu     sync.RWMutex
	apex   string
	soa    RR
	byName map[string]map[uint16][]RR // canonical name → type → records
	// below counts, for each name strictly between the apex and an owner,
	// the owner names beneath it. A counted name with no records of its own
	// is an empty non-terminal: it exists (RFC 1034 §4.3.2, RFC 8020) and
	// answers NODATA, not NXDOMAIN.
	below map[string]int
}

// NewZone creates a zone rooted at apex with a default SOA record.
func NewZone(apex string) *Zone {
	apex = CanonicalName(apex)
	z := &Zone{
		apex:   apex,
		byName: make(map[string]map[uint16][]RR),
		below:  make(map[string]int),
	}
	z.soa = RR{
		Name: apex, Type: TypeSOA, Class: ClassIN, TTL: 3600,
		SOA: &SOAData{
			MName: "ns." + strings.TrimPrefix(apex, "."), RName: "admin." + strings.TrimPrefix(apex, "."),
			Serial: 1, Refresh: 7200, Retry: 900, Expire: 86400, Minimum: 300,
		},
	}
	z.addLocked(z.soa)
	return z
}

// Apex returns the zone's apex name.
func (z *Zone) Apex() string { return z.apex }

// SOA returns the zone's SOA record.
func (z *Zone) SOA() RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.soa
}

// Add inserts a record. The record name must be within the zone.
func (z *Zone) Add(r RR) error {
	r.Name = CanonicalName(r.Name)
	if !IsSubdomain(z.apex, r.Name) {
		return fmt.Errorf("dns: record %s outside zone %s", r.Name, z.apex)
	}
	if r.Class == 0 {
		r.Class = ClassIN
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	z.addLocked(r)
	z.soa.SOA.Serial++
	return nil
}

func (z *Zone) addLocked(r RR) {
	types := z.byName[r.Name]
	if types == nil {
		types = make(map[uint16][]RR)
		z.byName[r.Name] = types
		z.countOwnerLocked(r.Name, 1)
	}
	types[r.Type] = append(types[r.Type], r)
}

// deleteTypeLocked drops name's records of type typ, and the name itself
// once it holds none.
func (z *Zone) deleteTypeLocked(name string, types map[uint16][]RR, typ uint16) {
	delete(types, typ)
	if len(types) == 0 {
		delete(z.byName, name)
		z.countOwnerLocked(name, -1)
	}
}

// countOwnerLocked moves the descendant count of every name strictly
// between the apex and owner by delta: +1 when owner gains its first
// record, -1 when it loses its last.
func (z *Zone) countOwnerLocked(owner string, delta int) {
	if owner == z.apex {
		return
	}
	for a := ParentName(owner); a != z.apex && a != "."; a = ParentName(a) {
		if z.below[a] += delta; z.below[a] == 0 {
			delete(z.below, a)
		}
	}
}

// Remove deletes all records of the given name and type. It returns the
// number of records removed.
func (z *Zone) Remove(name string, typ uint16) int {
	name = CanonicalName(name)
	z.mu.Lock()
	defer z.mu.Unlock()
	types := z.byName[name]
	if types == nil {
		return 0
	}
	n := len(types[typ])
	if n == 0 {
		return 0
	}
	z.deleteTypeLocked(name, types, typ)
	z.soa.SOA.Serial++
	return n
}

// RemoveWhere deletes records of the given name and type for which keep
// returns false, returning the number removed.
func (z *Zone) RemoveWhere(name string, typ uint16, keep func(RR) bool) int {
	name = CanonicalName(name)
	z.mu.Lock()
	defer z.mu.Unlock()
	types := z.byName[name]
	if types == nil {
		return 0
	}
	old := types[typ]
	var kept []RR
	for _, r := range old {
		if keep(r) {
			kept = append(kept, r)
		}
	}
	removed := len(old) - len(kept)
	if removed == 0 {
		return 0
	}
	if len(kept) == 0 {
		z.deleteTypeLocked(name, types, typ)
	} else {
		types[typ] = kept
	}
	z.soa.SOA.Serial++
	return removed
}

// LookupResult classifies the outcome of a zone lookup.
type LookupResult int

// Lookup outcomes.
const (
	// Answer: records found for the exact name and type.
	Answer LookupResult = iota
	// Delegation: the name is under a delegated child zone; Authority
	// holds the NS records and Additional any glue.
	Delegation
	// NXDomain: the name does not exist in the zone.
	NXDomain
	// NoData: the name exists but has no records of the requested type
	// (or none at all: an empty non-terminal, with records below it).
	NoData
	// OutOfZone: the name is not within this zone at all.
	OutOfZone
)

// Lookup resolves a query against the zone following RFC 1034 §4.3.2:
// exact match first, then the closest enclosing delegation.
func (z *Zone) Lookup(name string, typ uint16) (res LookupResult, answers, authority, additional []RR) {
	name = CanonicalName(name)
	if !IsSubdomain(z.apex, name) {
		return OutOfZone, nil, nil, nil
	}
	z.mu.RLock()
	defer z.mu.RUnlock()

	// Walk from the apex toward the name looking for a delegation cut
	// (an NS RRset on a name strictly between apex and the query name).
	if cut, ok := z.delegationCutLocked(name); ok && cut != z.apex {
		nsRecs := z.byName[cut][TypeNS]
		var glue []RR
		for _, ns := range nsRecs {
			if a := z.byName[CanonicalName(ns.Target)]; a != nil {
				glue = append(glue, a[TypeA]...)
				glue = append(glue, a[TypeAAAA]...)
				// SRV glue communicates the nameserver's port; OpenFLAME
				// authoritative servers run on unprivileged ports.
				glue = append(glue, a[TypeSRV]...)
			}
		}
		return Delegation, nil, nsRecs, glue
	}

	types := z.byName[name]
	if types == nil {
		if z.below[name] > 0 {
			return NoData, nil, []RR{z.soa}, nil
		}
		return NXDomain, nil, []RR{z.soa}, nil
	}
	if recs := types[typ]; len(recs) > 0 {
		return Answer, append([]RR(nil), recs...), nil, nil
	}
	// CNAME at the name answers any type.
	if cn := types[TypeCNAME]; len(cn) > 0 && typ != TypeCNAME {
		return Answer, append([]RR(nil), cn...), nil, nil
	}
	return NoData, nil, []RR{z.soa}, nil
}

// delegationCutLocked finds the closest ancestor of name (strictly below the
// apex, at or above name) that has an NS RRset, scanning from just below the
// apex downward.
func (z *Zone) delegationCutLocked(name string) (string, bool) {
	// Build the chain of names from apex down to name.
	var chain []string
	n := name
	for {
		chain = append(chain, n)
		if n == z.apex || n == "." {
			break
		}
		n = ParentName(n)
	}
	// chain is name..apex; scan from the top (just below apex) down.
	for i := len(chain) - 2; i >= 0; i-- {
		c := chain[i]
		if types := z.byName[c]; types != nil && len(types[TypeNS]) > 0 {
			// NS on the apex itself is not a cut.
			if c != z.apex {
				return c, true
			}
		}
	}
	return "", false
}

// AllRecords returns a snapshot of every record in the zone, sorted by
// owner name (raw store walk: includes delegation NS records and glue that
// Lookup would answer with referrals).
func (z *Zone) AllRecords() []RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	var out []RR
	names := make([]string, 0, len(z.byName))
	for n := range z.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, recs := range z.byName[n] {
			out = append(out, recs...)
		}
	}
	return out
}

// RecordCount returns the total number of records in the zone.
func (z *Zone) RecordCount() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	total := 0
	for _, types := range z.byName {
		for _, recs := range types {
			total += len(recs)
		}
	}
	return total
}
