package main

import (
	"flag"
	"testing"
	"time"

	"openflame/internal/resilience"
)

// TestFlagDefaults pins the CLI defaults: everything resilience-related is
// off, reproducing the plain client.
func TestFlagDefaults(t *testing.T) {
	fs, o := newFlagSet("flame")
	if err := fs.Parse([]string{"discover", "40.44", "-79.99"}); err != nil {
		t.Fatal(err)
	}
	if got := fs.Args(); len(got) != 3 || got[0] != "discover" {
		t.Fatalf("positional args = %v", got)
	}
	if o.root != "127.0.0.1:5300" || o.timeout != 30*time.Second || o.perServer != 5*time.Second {
		t.Fatalf("defaults changed: %+v", o)
	}
	if o.retries != 0 || o.hedgeAfter != 0 || o.breakerThreshold != 0 || o.retryBudget != 0 {
		t.Fatalf("resilience should default off: %+v", o)
	}
	if c := o.newClient(); c.Resilience != nil {
		t.Fatalf("default client has resilience enabled: %+v", c.Resilience.Policy)
	}
}

// TestFlagsRoundTripIntoClientConfig drives every knob through the flag
// parser and asserts it lands on the built client.
func TestFlagsRoundTripIntoClientConfig(t *testing.T) {
	fs, o := newFlagSet("flame")
	err := fs.Parse([]string{
		"-root", "10.1.2.3:53",
		"-world", "http://world:8080",
		"-user", "alice", "-app", "shopping",
		"-timeout", "12s",
		"-per-server-timeout", "750ms",
		"-concurrency", "4",
		"-retries", "3",
		"-retry-backoff", "20ms",
		"-retry-budget", "5",
		"-hedge-after", "40ms",
		"-breaker-threshold", "6",
		"-breaker-cooldown", "90s",
		"search", "40.44", "-79.99", "coffee",
	})
	if err != nil {
		t.Fatal(err)
	}
	c := o.newClient()
	if c.User != "alice" || c.App != "shopping" || c.WorldURL != "http://world:8080" {
		t.Fatalf("identity/world flags lost: %+v", c)
	}
	if c.MaxConcurrency != 4 || c.PerServerTimeout != 750*time.Millisecond {
		t.Fatalf("concurrency flags lost: MaxConcurrency=%d PerServerTimeout=%v",
			c.MaxConcurrency, c.PerServerTimeout)
	}
	want := resilience.Policy{
		Retry:      resilience.RetryPolicy{MaxAttempts: 3, BaseBackoff: 20 * time.Millisecond, Budget: 5},
		HedgeAfter: 40 * time.Millisecond, BreakerThreshold: 6, BreakerCooldown: 90 * time.Second,
	}
	if c.Resilience == nil || c.Resilience.Policy != want {
		t.Fatalf("resilience flags lost: tracker %v, want policy %+v", c.Resilience, want)
	}
	if got := fs.Args(); len(got) != 4 || got[0] != "search" {
		t.Fatalf("positional args = %v", got)
	}
	if o.timeout != 12*time.Second {
		t.Fatalf("timeout = %v", o.timeout)
	}
}

// TestUnknownFlagRejected: parse errors surface instead of being dropped.
func TestUnknownFlagRejected(t *testing.T) {
	fs, _ := newFlagSet("flame")
	fs.SetOutput(discard{})
	if err := fs.Parse([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestFlagSurface pins the size of the CLI surface: a flag is a second path
// somebody has to test, so adding one should be a deliberate act. The 14 are
// the four deployment settings (root, world, user, app), the three fan-out
// knobs (timeout, per-server-timeout, concurrency), -session and the six
// resilience knobs. -batch must stay rejected: the client never coalesces
// requests.
func TestFlagSurface(t *testing.T) {
	fs, _ := newFlagSet("flame")
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 14 {
		t.Fatalf("flame has %d flags, want 14", n)
	}
	fs.SetOutput(discard{})
	if err := fs.Parse([]string{"-batch", "discover", "40.44", "-79.99"}); err == nil {
		t.Fatal("-batch accepted")
	}
}
