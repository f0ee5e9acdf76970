// Package dns implements the subset of the Domain Name System that
// OpenFLAME's discovery layer repurposes as its federated spatial database
// (§5.1): RFC 1035 wire format with name compression, authoritative zones
// with NS delegation, UDP and TCP servers with truncation fallback, and a
// caching iterative resolver.
//
// The package is self-contained (stdlib only) and can run over real loopback
// sockets or an in-memory transport, so discovery experiments measure real
// protocol mechanics — query fan-out, referrals, TTL caching — without
// external infrastructure.
package dns

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
)

// Record types (subset).
const (
	TypeA     uint16 = 1
	TypeNS    uint16 = 2
	TypeCNAME uint16 = 5
	TypeSOA   uint16 = 6
	TypeTXT   uint16 = 16
	TypeAAAA  uint16 = 28
	TypeSRV   uint16 = 33
)

// ClassIN is the Internet class; the only class this implementation serves.
const ClassIN uint16 = 1

// Response codes.
const (
	RcodeSuccess        = 0
	RcodeFormatError    = 1
	RcodeServerFailure  = 2
	RcodeNameError      = 3 // NXDOMAIN
	RcodeNotImplemented = 4
	RcodeRefused        = 5
)

// TypeString returns a human-readable name for a record type.
func TypeString(t uint16) string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeSRV:
		return "SRV"
	default:
		return fmt.Sprintf("TYPE%d", t)
	}
}

// CanonicalName lowercases a domain name and ensures a trailing dot.
func CanonicalName(name string) string {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" || name == "." {
		return "."
	}
	if !strings.HasSuffix(name, ".") {
		name += "."
	}
	return name
}

// ParentName returns the name with its leftmost label removed ("a.b.c." →
// "b.c."); the root returns itself.
func ParentName(name string) string {
	name = CanonicalName(name)
	if name == "." {
		return "."
	}
	i := strings.Index(name, ".")
	if i < 0 || i == len(name)-1 {
		return "."
	}
	return name[i+1:]
}

// IsSubdomain reports whether child is equal to or beneath parent.
func IsSubdomain(parent, child string) bool {
	parent = CanonicalName(parent)
	child = CanonicalName(child)
	if parent == "." {
		return true
	}
	return child == parent || strings.HasSuffix(child, "."+parent)
}

// Question is a single query.
type Question struct {
	Name  string
	Type  uint16
	Class uint16
}

// SOAData holds the fields of an SOA record.
type SOAData struct {
	MName   string
	RName   string
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// SRVData holds the fields of an SRV record.
type SRVData struct {
	Priority uint16
	Weight   uint16
	Port     uint16
	Target   string
}

// RR is a resource record. Exactly one of the data fields is meaningful,
// according to Type: A/AAAA → IP, NS/CNAME → Target, TXT → TXT, SOA → SOA,
// SRV → SRV.
type RR struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32

	IP     net.IP
	Target string
	TXT    []string
	SOA    *SOAData
	SRV    *SRVData
}

// String renders the record in zone-file style.
func (r RR) String() string {
	switch r.Type {
	case TypeA, TypeAAAA:
		return fmt.Sprintf("%s %d IN %s %s", r.Name, r.TTL, TypeString(r.Type), r.IP)
	case TypeNS, TypeCNAME:
		return fmt.Sprintf("%s %d IN %s %s", r.Name, r.TTL, TypeString(r.Type), r.Target)
	case TypeTXT:
		return fmt.Sprintf("%s %d IN TXT %q", r.Name, r.TTL, strings.Join(r.TXT, " "))
	case TypeSRV:
		return fmt.Sprintf("%s %d IN SRV %d %d %d %s", r.Name, r.TTL,
			r.SRV.Priority, r.SRV.Weight, r.SRV.Port, r.SRV.Target)
	case TypeSOA:
		return fmt.Sprintf("%s %d IN SOA %s %s %d", r.Name, r.TTL, r.SOA.MName, r.SOA.RName, r.SOA.Serial)
	default:
		return fmt.Sprintf("%s %d IN %s", r.Name, r.TTL, TypeString(r.Type))
	}
}

// Message is a DNS message.
type Message struct {
	ID                 uint16
	Response           bool
	Opcode             int
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	Rcode              int

	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// errors
var (
	ErrBufTooSmall   = errors.New("dns: buffer too small")
	ErrBadName       = errors.New("dns: malformed name")
	ErrBadPointer    = errors.New("dns: bad compression pointer")
	ErrLabelTooLong  = errors.New("dns: label exceeds 63 bytes")
	ErrNameTooLong   = errors.New("dns: name exceeds 255 bytes")
	ErrStringTooLong = errors.New("dns: character-string exceeds 255 bytes")
)

// --- packing ---

type packer struct {
	buf     []byte
	offsets map[string]int // name suffix → offset, for compression
}

func (p *packer) u16(v uint16) { p.buf = binary.BigEndian.AppendUint16(p.buf, v) }
func (p *packer) u32(v uint32) { p.buf = binary.BigEndian.AppendUint32(p.buf, v) }

// name packs a domain name, with RFC 1035 compression when compress is
// set. Every name goes through the same label checks.
func (p *packer) name(name string, compress bool) error {
	name = CanonicalName(name)
	if len(name) > 255 {
		return ErrNameTooLong
	}
	if name == "." {
		name = "" // the root is the terminating zero alone
	}
	for name != "" {
		if compress {
			if off, ok := p.offsets[name]; ok && off < 0x4000 {
				p.u16(0xC000 | uint16(off))
				return nil
			}
			if len(p.buf) < 0x4000 {
				p.offsets[name] = len(p.buf)
			}
		}
		i := strings.Index(name, ".")
		label := name[:i]
		if len(label) > 63 {
			return ErrLabelTooLong
		}
		if len(label) == 0 {
			return ErrBadName
		}
		p.buf = append(p.buf, byte(len(label)))
		p.buf = append(p.buf, label...)
		name = name[i+1:]
	}
	p.buf = append(p.buf, 0)
	return nil
}

func (p *packer) rr(r RR) error {
	if err := p.name(r.Name, true); err != nil {
		return err
	}
	p.u16(r.Type)
	class := r.Class
	if class == 0 {
		class = ClassIN
	}
	p.u16(class)
	p.u32(r.TTL)
	lenAt := len(p.buf)
	p.u16(0) // placeholder rdlength
	start := len(p.buf)
	switch r.Type {
	case TypeA:
		ip4 := r.IP.To4()
		if ip4 == nil {
			return fmt.Errorf("dns: A record %s has non-IPv4 address %v", r.Name, r.IP)
		}
		p.buf = append(p.buf, ip4...)
	case TypeAAAA:
		ip16 := r.IP.To16()
		if ip16 == nil {
			return fmt.Errorf("dns: AAAA record %s has bad address %v", r.Name, r.IP)
		}
		p.buf = append(p.buf, ip16...)
	case TypeNS, TypeCNAME:
		if err := p.name(r.Target, true); err != nil {
			return err
		}
	case TypeTXT:
		for _, s := range r.TXT {
			if len(s) > 255 {
				return ErrStringTooLong
			}
			p.buf = append(p.buf, byte(len(s)))
			p.buf = append(p.buf, s...)
		}
		if len(r.TXT) == 0 {
			p.buf = append(p.buf, 0)
		}
	case TypeSRV:
		if r.SRV == nil {
			return fmt.Errorf("dns: SRV record %s missing data", r.Name)
		}
		p.u16(r.SRV.Priority)
		p.u16(r.SRV.Weight)
		p.u16(r.SRV.Port)
		// SRV targets are packed without compression (RFC 2782).
		if err := p.name(r.SRV.Target, false); err != nil {
			return err
		}
	case TypeSOA:
		if r.SOA == nil {
			return fmt.Errorf("dns: SOA record %s missing data", r.Name)
		}
		if err := p.name(r.SOA.MName, true); err != nil {
			return err
		}
		if err := p.name(r.SOA.RName, true); err != nil {
			return err
		}
		p.u32(r.SOA.Serial)
		p.u32(r.SOA.Refresh)
		p.u32(r.SOA.Retry)
		p.u32(r.SOA.Expire)
		p.u32(r.SOA.Minimum)
	default:
		return fmt.Errorf("dns: cannot pack record type %d", r.Type)
	}
	rdlen := len(p.buf) - start
	binary.BigEndian.PutUint16(p.buf[lenAt:], uint16(rdlen))
	return nil
}

// Pack serializes the message to wire format.
func (m *Message) Pack() ([]byte, error) {
	p := &packer{buf: make([]byte, 0, 512), offsets: make(map[string]int)}
	p.u16(m.ID)
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Opcode&0xF) << 11
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.Truncated {
		flags |= 1 << 9
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	if m.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.Rcode & 0xF)
	p.u16(flags)
	p.u16(uint16(len(m.Questions)))
	p.u16(uint16(len(m.Answers)))
	p.u16(uint16(len(m.Authority)))
	p.u16(uint16(len(m.Additional)))
	for _, q := range m.Questions {
		if err := p.name(q.Name, true); err != nil {
			return nil, err
		}
		p.u16(q.Type)
		class := q.Class
		if class == 0 {
			class = ClassIN
		}
		p.u16(class)
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, r := range sec {
			if err := p.rr(r); err != nil {
				return nil, err
			}
		}
	}
	return p.buf, nil
}

// --- unpacking ---

type unpacker struct {
	buf []byte
	off int
}

func (u *unpacker) u16() (uint16, error) {
	if u.off+2 > len(u.buf) {
		return 0, ErrBufTooSmall
	}
	v := binary.BigEndian.Uint16(u.buf[u.off:])
	u.off += 2
	return v, nil
}

func (u *unpacker) u32() (uint32, error) {
	if u.off+4 > len(u.buf) {
		return 0, ErrBufTooSmall
	}
	v := binary.BigEndian.Uint32(u.buf[u.off:])
	u.off += 4
	return v, nil
}

func (u *unpacker) bytes(n int) ([]byte, error) {
	if u.off+n > len(u.buf) {
		return nil, ErrBufTooSmall
	}
	b := u.buf[u.off : u.off+n]
	u.off += n
	return b, nil
}

// name reads a possibly-compressed domain name starting at the current
// offset, advancing past it.
func (u *unpacker) name() (string, error) {
	s, next, err := readName(u.buf, u.off)
	if err != nil {
		return "", err
	}
	u.off = next
	return s, nil
}

// readName decodes the name at off and returns it with the offset just past
// its in-place representation.
func readName(buf []byte, off int) (string, int, error) {
	var sb strings.Builder
	jumped := false
	next := -1
	hops := 0
	for {
		if off >= len(buf) {
			return "", 0, ErrBufTooSmall
		}
		b := buf[off]
		switch {
		case b == 0:
			if !jumped {
				next = off + 1
			}
			name := sb.String()
			if name == "" {
				name = "."
			}
			if len(name) > 255 {
				return "", 0, ErrNameTooLong
			}
			return name, next, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(buf) {
				return "", 0, ErrBufTooSmall
			}
			ptr := int(binary.BigEndian.Uint16(buf[off:]) & 0x3FFF)
			if !jumped {
				next = off + 2
			}
			if ptr >= off || hops > 64 {
				return "", 0, ErrBadPointer
			}
			off = ptr
			jumped = true
			hops++
		case b&0xC0 != 0:
			return "", 0, ErrBadName
		default:
			l := int(b)
			if off+1+l > len(buf) {
				return "", 0, ErrBufTooSmall
			}
			// A dot inside a label would read back as a label boundary:
			// the 3-byte label "a.b" is not the two-label name "a.b.".
			if bytes.IndexByte(buf[off+1:off+1+l], '.') >= 0 {
				return "", 0, ErrBadName
			}
			sb.Write(buf[off+1 : off+1+l])
			sb.WriteByte('.')
			off += 1 + l
		}
	}
}

func (u *unpacker) rr() (RR, error) {
	var r RR
	var err error
	if r.Name, err = u.name(); err != nil {
		return r, err
	}
	if r.Type, err = u.u16(); err != nil {
		return r, err
	}
	if r.Class, err = u.u16(); err != nil {
		return r, err
	}
	ttl, err := u.u32()
	if err != nil {
		return r, err
	}
	r.TTL = ttl
	rdlen, err := u.u16()
	if err != nil {
		return r, err
	}
	end := u.off + int(rdlen)
	if end > len(u.buf) {
		return r, ErrBufTooSmall
	}
	switch r.Type {
	case TypeA:
		b, err := u.bytes(4)
		if err != nil {
			return r, err
		}
		r.IP = net.IPv4(b[0], b[1], b[2], b[3])
	case TypeAAAA:
		b, err := u.bytes(16)
		if err != nil {
			return r, err
		}
		r.IP = append(net.IP(nil), b...)
	case TypeNS, TypeCNAME:
		if r.Target, err = u.name(); err != nil {
			return r, err
		}
	case TypeTXT:
		for u.off < end {
			l := int(u.buf[u.off])
			u.off++
			if u.off+l > end {
				return r, ErrBufTooSmall
			}
			r.TXT = append(r.TXT, string(u.buf[u.off:u.off+l]))
			u.off += l
		}
	case TypeSRV:
		srv := &SRVData{}
		if srv.Priority, err = u.u16(); err != nil {
			return r, err
		}
		if srv.Weight, err = u.u16(); err != nil {
			return r, err
		}
		if srv.Port, err = u.u16(); err != nil {
			return r, err
		}
		if srv.Target, err = u.name(); err != nil {
			return r, err
		}
		r.SRV = srv
	case TypeSOA:
		soa := &SOAData{}
		if soa.MName, err = u.name(); err != nil {
			return r, err
		}
		if soa.RName, err = u.name(); err != nil {
			return r, err
		}
		if soa.Serial, err = u.u32(); err != nil {
			return r, err
		}
		if soa.Refresh, err = u.u32(); err != nil {
			return r, err
		}
		if soa.Retry, err = u.u32(); err != nil {
			return r, err
		}
		if soa.Expire, err = u.u32(); err != nil {
			return r, err
		}
		if soa.Minimum, err = u.u32(); err != nil {
			return r, err
		}
		r.SOA = soa
	default:
		// Unknown type: skip rdata opaquely.
		u.off = end
	}
	if u.off != end {
		return r, fmt.Errorf("dns: rdata length mismatch for %s %s", r.Name, TypeString(r.Type))
	}
	return r, nil
}

// Unpack parses a wire-format DNS message.
func Unpack(buf []byte) (*Message, error) {
	u := &unpacker{buf: buf}
	m := &Message{}
	id, err := u.u16()
	if err != nil {
		return nil, err
	}
	m.ID = id
	flags, err := u.u16()
	if err != nil {
		return nil, err
	}
	m.Response = flags&(1<<15) != 0
	m.Opcode = int(flags>>11) & 0xF
	m.Authoritative = flags&(1<<10) != 0
	m.Truncated = flags&(1<<9) != 0
	m.RecursionDesired = flags&(1<<8) != 0
	m.RecursionAvailable = flags&(1<<7) != 0
	m.Rcode = int(flags & 0xF)
	qd, err := u.u16()
	if err != nil {
		return nil, err
	}
	an, err := u.u16()
	if err != nil {
		return nil, err
	}
	ns, err := u.u16()
	if err != nil {
		return nil, err
	}
	ar, err := u.u16()
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(qd); i++ {
		var q Question
		if q.Name, err = u.name(); err != nil {
			return nil, err
		}
		if q.Type, err = u.u16(); err != nil {
			return nil, err
		}
		if q.Class, err = u.u16(); err != nil {
			return nil, err
		}
		m.Questions = append(m.Questions, q)
	}
	for i := 0; i < int(an); i++ {
		r, err := u.rr()
		if err != nil {
			return nil, err
		}
		m.Answers = append(m.Answers, r)
	}
	for i := 0; i < int(ns); i++ {
		r, err := u.rr()
		if err != nil {
			return nil, err
		}
		m.Authority = append(m.Authority, r)
	}
	for i := 0; i < int(ar); i++ {
		r, err := u.rr()
		if err != nil {
			return nil, err
		}
		m.Additional = append(m.Additional, r)
	}
	return m, nil
}
