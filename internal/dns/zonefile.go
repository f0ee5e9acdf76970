package dns

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
)

// Zone-file support: a line-oriented text format for zone contents, read by
// the flame-dns command.
//
//	; comment
//	<name> [ttl] <type> <value...>
//
// Supported types: A, AAAA, NS, CNAME, TXT (value = rest of line),
// SRV (value = port [target]).

// ParseZoneRecords reads records from r and adds them to the zone.
// It returns the number of records added.
func ParseZoneRecords(zone *Zone, r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	lineNo := 0
	added := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		rr, err := ParseRecordLine(line)
		if err != nil {
			return added, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if err := zone.Add(rr); err != nil {
			return added, fmt.Errorf("line %d: %w", lineNo, err)
		}
		added++
	}
	return added, sc.Err()
}

// ParseRecordLine parses a single zone-file line into a record.
func ParseRecordLine(line string) (RR, error) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return RR{}, fmt.Errorf("dns: want <name> [ttl] <type> <value>")
	}
	rr := RR{Name: fields[0], TTL: 60}
	rest := fields[1:]
	// Optional TTL.
	if ttl, err := strconv.ParseUint(rest[0], 10, 32); err == nil {
		rr.TTL = uint32(ttl)
		rest = rest[1:]
		if len(rest) < 2 {
			return RR{}, fmt.Errorf("dns: missing type or value")
		}
	}
	typ := strings.ToUpper(rest[0])
	vals := rest[1:]
	switch typ {
	case "A":
		ip := net.ParseIP(vals[0])
		if ip == nil || ip.To4() == nil {
			return RR{}, fmt.Errorf("dns: bad IPv4 %q", vals[0])
		}
		rr.Type = TypeA
		rr.IP = ip
	case "AAAA":
		ip := net.ParseIP(vals[0])
		if ip == nil {
			return RR{}, fmt.Errorf("dns: bad IPv6 %q", vals[0])
		}
		rr.Type = TypeAAAA
		rr.IP = ip
	case "NS":
		rr.Type = TypeNS
		rr.Target = vals[0]
	case "CNAME":
		rr.Type = TypeCNAME
		rr.Target = vals[0]
	case "TXT":
		rr.Type = TypeTXT
		txt := strings.Join(vals, " ")
		txt = strings.Trim(txt, `"`)
		rr.TXT = []string{txt}
	case "SRV":
		port, err := strconv.ParseUint(vals[0], 10, 16)
		if err != nil {
			return RR{}, fmt.Errorf("dns: bad SRV port %q", vals[0])
		}
		target := rr.Name
		if len(vals) > 1 {
			target = vals[1]
		}
		rr.Type = TypeSRV
		rr.SRV = &SRVData{Port: uint16(port), Target: target}
	default:
		return RR{}, fmt.Errorf("dns: unsupported record type %q", typ)
	}
	return rr, nil
}
