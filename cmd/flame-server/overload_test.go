package main

import (
	"bufio"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"
)

func TestOverloadFlagDefaultsAndRoundTrip(t *testing.T) {
	fs, o := newFlagSet("flame-server")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.maxInFlight != -1 {
		t.Fatalf("admission default changed: %+v", o)
	}
	// The -1 sentinel sizes admission to the machine; 0 disables it.
	if got := o.inFlightBound(); got != 4*runtime.GOMAXPROCS(0) {
		t.Fatalf("auto inFlightBound = %d, want %d", got, 4*runtime.GOMAXPROCS(0))
	}
	o.maxInFlight = 0
	if got := o.inFlightBound(); got != 0 {
		t.Fatalf("disabled inFlightBound = %d, want 0", got)
	}
	o.maxInFlight = 7
	if got := o.inFlightBound(); got != 7 {
		t.Fatalf("explicit inFlightBound = %d, want 7", got)
	}

	fs, o = newFlagSet("flame-server")
	if err := fs.Parse([]string{"-max-inflight", "32"}); err != nil {
		t.Fatal(err)
	}
	if o.maxInFlight != 32 {
		t.Fatalf("admission flag lost: %+v", o)
	}
	srv := httpServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 5*time.Second || srv.ReadTimeout != 30*time.Second || srv.IdleTimeout != 2*time.Minute {
		t.Fatalf("httpServer ingest timeouts changed: %+v", srv)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, want 0 (per-request deadlines belong to the client)", srv.WriteTimeout)
	}
}

// TestSlowlorisConnectionReaped is the slowloris regression: a client that
// opens a connection and trickles (or stops sending) its headers is cut
// off at ReadHeaderTimeout instead of holding server resources forever —
// the exact construction main() serves with, its 5s header timeout
// shortened so the test does not wait it out.
func TestSlowlorisConnectionReaped(t *testing.T) {
	srv := httpServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.ReadHeaderTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request line, then silence: the attack.
	if _, err := conn.Write([]byte("POST /geocode HTTP/1.1\r\nHost: x\r\nX-Dribble:")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a half-sent request")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("slowloris connection held for %v, want reaping near the 200ms ReadHeaderTimeout", elapsed)
	}

	// A well-behaved request on the same server still answers.
	conn2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Write([]byte("GET /ok HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	res, err := http.ReadResponse(bufio.NewReader(conn2), nil)
	if err != nil {
		t.Fatalf("healthy request failed on the hardened server: %v", err)
	}
	res.Body.Close()
}
