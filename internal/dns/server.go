package dns

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MaxUDPSize is the classic DNS UDP payload limit; larger responses are
// truncated and the client retries over TCP.
const MaxUDPSize = 512

// Server is an authoritative DNS server for one zone, listening on UDP and
// TCP on the same address.
type Server struct {
	zone *Zone

	udp  *net.UDPConn
	tcp  net.Listener
	addr string

	mu      sync.Mutex
	closed  bool
	wg      sync.WaitGroup
	queries atomic.Int64
}

// NewServer creates a server for zone bound to addr (e.g. "127.0.0.1:0").
// It starts serving immediately.
func NewServer(zone *Zone, addr string) (*Server, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	// DNS serves the same port over UDP and TCP. For an ephemeral-port
	// request (":0") the UDP bind picks the port and the TCP bind follows
	// it — but that TCP port can already belong to an unrelated socket, so
	// retry the pair with a fresh ephemeral port instead of failing the
	// whole server on the collision.
	tries := 1
	if udpAddr.Port == 0 {
		tries = 16
	}
	var lastErr error
	for i := 0; i < tries; i++ {
		udp, err := net.ListenUDP("udp", udpAddr)
		if err != nil {
			return nil, err
		}
		// Bind TCP to the same port the UDP socket got.
		tcp, err := net.Listen("tcp", udp.LocalAddr().String())
		if err != nil {
			udp.Close()
			lastErr = err
			continue
		}
		s := &Server{zone: zone, udp: udp, tcp: tcp, addr: udp.LocalAddr().String()}
		s.wg.Add(2)
		go s.serveUDP()
		go s.serveTCP()
		return s, nil
	}
	return nil, lastErr
}

// Addr returns the address the server is listening on.
func (s *Server) Addr() string { return s.addr }

// QueryCount returns the number of queries served.
func (s *Server) QueryCount() int64 { return s.queries.Load() }

// Close stops the server and waits for its goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.udp.Close()
	s.tcp.Close()
	s.wg.Wait()
	return nil
}

func (s *Server) serveUDP() {
	defer s.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, raddr, err := s.udp.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		req := make([]byte, n)
		copy(req, buf[:n])
		go func(req []byte, raddr *net.UDPAddr) {
			resp := s.handleWire(req, true)
			if resp != nil {
				s.udp.WriteToUDP(resp, raddr)
			}
		}(req, raddr)
	}
}

func (s *Server) serveTCP() {
	defer s.wg.Done()
	for {
		conn, err := s.tcp.Accept()
		if err != nil {
			return // closed
		}
		go s.serveTCPConn(conn)
	}
}

func (s *Server) serveTCPConn(conn net.Conn) {
	defer conn.Close()
	for {
		var lenBuf [2]byte
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		msgLen := binary.BigEndian.Uint16(lenBuf[:])
		req := make([]byte, msgLen)
		if _, err := io.ReadFull(conn, req); err != nil {
			return
		}
		resp := s.handleWire(req, false)
		if resp == nil {
			return
		}
		out := make([]byte, 2+len(resp))
		binary.BigEndian.PutUint16(out, uint16(len(resp)))
		copy(out[2:], resp)
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// handleWire parses a request, answers it from the zone, and serializes the
// response, applying UDP truncation if needed.
func (s *Server) handleWire(req []byte, udp bool) []byte {
	msg, err := Unpack(req)
	if err != nil {
		return nil // unparseable; drop
	}
	resp := s.Handle(msg)
	out, err := resp.Pack()
	if err != nil {
		return nil
	}
	if udp && len(out) > MaxUDPSize {
		trunc := &Message{
			ID: resp.ID, Response: true, Authoritative: resp.Authoritative,
			Truncated: true, RecursionDesired: resp.RecursionDesired,
			Rcode: RcodeSuccess, Questions: resp.Questions,
		}
		out, err = trunc.Pack()
		if err != nil {
			return nil
		}
	}
	return out
}

// Handle answers a parsed query from the zone. It is exported so the
// in-memory transport can serve the same logic without sockets.
func (s *Server) Handle(req *Message) *Message {
	s.queries.Add(1)
	return HandleQuery(s.zone, req)
}

// HandleQuery resolves req against zone and builds the response message.
func HandleQuery(zone *Zone, req *Message) *Message {
	resp := &Message{
		ID:               req.ID,
		Response:         true,
		Opcode:           req.Opcode,
		RecursionDesired: req.RecursionDesired,
	}
	if req.Opcode != 0 || len(req.Questions) != 1 {
		resp.Rcode = RcodeNotImplemented
		return resp
	}
	q := req.Questions[0]
	resp.Questions = []Question{q}
	if q.Class != ClassIN && q.Class != 0 {
		resp.Rcode = RcodeRefused
		return resp
	}
	res, answers, authority, additional := zone.Lookup(q.Name, q.Type)
	switch res {
	case Answer:
		resp.Authoritative = true
		resp.Answers = answers
		// Chase in-zone CNAMEs.
		resp.Answers = chaseCNAME(zone, resp.Answers, q.Type, 8)
	case Delegation:
		resp.Authority = authority
		resp.Additional = additional
	case NXDomain:
		resp.Authoritative = true
		resp.Rcode = RcodeNameError
		resp.Authority = authority
	case NoData:
		resp.Authoritative = true
		resp.Authority = authority
	case OutOfZone:
		resp.Rcode = RcodeRefused
	}
	return resp
}

// chaseCNAME appends the target records for any CNAME answers when the
// target is in the same zone.
func chaseCNAME(zone *Zone, answers []RR, qtype uint16, depth int) []RR {
	if depth == 0 || qtype == TypeCNAME {
		return answers
	}
	last := answers[len(answers)-1]
	if last.Type != TypeCNAME {
		return answers
	}
	res, more, _, _ := zone.Lookup(last.Target, qtype)
	if res != Answer {
		return answers
	}
	return chaseCNAME(zone, append(answers, more...), qtype, depth-1)
}

// Exchanger performs one DNS round trip to the given server address.
// Implementations: UDPExchanger (real sockets, with TCP fallback on
// truncation) and MemExchanger (in-process).
type Exchanger interface {
	Exchange(addr string, req *Message) (*Message, error)
}

// ContextExchanger is an Exchanger that can abort an in-flight round trip
// when the context is cancelled. The resolver uses it when available, so
// implementing it is optional but lets cancellation interrupt a round trip
// already on the wire rather than only between round trips.
type ContextExchanger interface {
	ExchangeContext(ctx context.Context, addr string, req *Message) (*Message, error)
}

// exchange routes through ExchangeContext when the transport supports it.
func exchange(ctx context.Context, ex Exchanger, addr string, req *Message) (*Message, error) {
	if cex, ok := ex.(ContextExchanger); ok {
		return cex.ExchangeContext(ctx, addr, req)
	}
	return ex.Exchange(addr, req)
}

// UDPExchanger sends queries over UDP with TCP retry on truncation.
type UDPExchanger struct{}

// Exchange implements Exchanger.
func (e UDPExchanger) Exchange(addr string, req *Message) (*Message, error) {
	return e.ExchangeContext(context.Background(), addr, req)
}

// ExchangeContext implements ContextExchanger: the context deadline (or
// cancellation) is applied to the socket as an I/O deadline.
func (UDPExchanger) ExchangeContext(ctx context.Context, addr string, req *Message) (*Message, error) {
	wire, err := req.Pack()
	if err != nil {
		return nil, err
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "udp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	stop := deadlineFromCtx(ctx, conn)
	defer stop()
	if _, err := conn.Write(wire); err != nil {
		return nil, err
	}
	buf := make([]byte, 64*1024)
	n, err := conn.Read(buf)
	if err != nil {
		return nil, err
	}
	resp, err := Unpack(buf[:n])
	if err != nil {
		return nil, err
	}
	if resp.ID != req.ID {
		return nil, fmt.Errorf("dns: response ID mismatch")
	}
	if resp.Truncated {
		return tcpExchange(ctx, addr, wire, req.ID)
	}
	return resp, nil
}

// deadlineFromCtx propagates the context deadline to the connection and
// interrupts blocked I/O if the context is cancelled mid-flight. The
// returned stop function releases the watcher goroutine.
func deadlineFromCtx(ctx context.Context, conn net.Conn) (stop func()) {
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}
	if ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			_ = conn.SetDeadline(time.Unix(0, 1)) // unblock pending reads
		case <-done:
		}
	}()
	return func() { close(done) }
}

func tcpExchange(ctx context.Context, addr string, wire []byte, id uint16) (*Message, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	stop := deadlineFromCtx(ctx, conn)
	defer stop()
	out := make([]byte, 2+len(wire))
	binary.BigEndian.PutUint16(out, uint16(len(wire)))
	copy(out[2:], wire)
	if _, err := conn.Write(out); err != nil {
		return nil, err
	}
	var lenBuf [2]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return nil, err
	}
	respBuf := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
	if _, err := io.ReadFull(conn, respBuf); err != nil {
		return nil, err
	}
	resp, err := Unpack(respBuf)
	if err != nil {
		return nil, err
	}
	if resp.ID != id {
		return nil, fmt.Errorf("dns: response ID mismatch")
	}
	return resp, nil
}

// MemExchanger routes queries to registered zones in-process, still passing
// through Pack/Unpack so wire-format behaviour (including compression) is
// exercised. An optional Delay hook simulates network latency.
type MemExchanger struct {
	mu    sync.RWMutex
	zones map[string]*Zone
	// Delay, if non-nil, is invoked before each exchange (e.g. to sleep).
	Delay func(addr string)
	count atomic.Int64
}

// NewMemExchanger creates an empty in-memory transport.
func NewMemExchanger() *MemExchanger {
	return &MemExchanger{zones: make(map[string]*Zone)}
}

// Register binds a zone to a synthetic address.
func (m *MemExchanger) Register(addr string, zone *Zone) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.zones[addr] = zone
}

// ExchangeCount returns the number of exchanges performed.
func (m *MemExchanger) ExchangeCount() int64 { return m.count.Load() }

// Exchange implements Exchanger.
func (m *MemExchanger) Exchange(addr string, req *Message) (*Message, error) {
	return m.ExchangeContext(context.Background(), addr, req)
}

// ExchangeContext implements ContextExchanger. The Delay hook itself is not
// interruptible, but cancellation is observed before and after it so a
// cancelled resolution never proceeds to serve from the zone.
func (m *MemExchanger) ExchangeContext(ctx context.Context, addr string, req *Message) (*Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.count.Add(1)
	if m.Delay != nil {
		m.Delay(addr)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	m.mu.RLock()
	zone := m.zones[addr]
	m.mu.RUnlock()
	if zone == nil {
		return nil, fmt.Errorf("dns: no server at %s", addr)
	}
	wire, err := req.Pack()
	if err != nil {
		return nil, err
	}
	parsed, err := Unpack(wire)
	if err != nil {
		return nil, err
	}
	resp := HandleQuery(zone, parsed)
	respWire, err := resp.Pack()
	if err != nil {
		return nil, err
	}
	return Unpack(respWire)
}
