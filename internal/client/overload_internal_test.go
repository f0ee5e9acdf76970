package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"openflame/internal/resilience"
	"openflame/internal/wire"
)

// shedServer answers every request with a 429 shaped exactly like
// mapserver's admission shed: JSON error body plus a Retry-After header.
func shedServer(t *testing.T, header string, bodySeconds int) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if header != "" {
			w.Header().Set(wire.RetryAfterHeader, header)
		}
		w.WriteHeader(wire.StatusOverloaded)
		body := `{"error":"server overloaded"`
		if bodySeconds > 0 {
			body = `{"error":"server overloaded","retryAfterSeconds":3`
		}
		_, _ = w.Write([]byte(body + "}"))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestPostSurfacesRetryAfterOnShed pins the wire contract the resilience
// layer builds on: a 429 arrives at Classify as an HTTPError carrying the
// server's Retry-After, from the header when present, from the body hint
// when not — for a JSON POST and a tile GET alike.
func TestPostSurfacesRetryAfterOnShed(t *testing.T) {
	cases := []struct {
		name        string
		header      string
		bodySeconds int
		want        time.Duration
	}{
		{"header wins", "2", 3, 2 * time.Second},
		{"body fallback", "", 3, 3 * time.Second},
		{"garbage header falls back", "soon", 3, 3 * time.Second},
		{"no hint at all", "", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := shedServer(t, tc.header, tc.bodySeconds)
			c := New(nil, ts.Client())
			_, postErr := c.post(context.Background(), ts.URL, "/search", wire.SearchRequest{Query: "x"})
			_, tileErr := c.TilePNGV2(context.Background(), ts.URL, 17, 0, 0)
			for _, err := range []error{postErr, tileErr} {
				var he *resilience.HTTPError
				if !errors.As(err, &he) {
					t.Fatalf("error = %v, want *resilience.HTTPError", err)
				}
				if he.StatusCode != wire.StatusOverloaded {
					t.Fatalf("%s: status = %d, want %d", he.URL, he.StatusCode, wire.StatusOverloaded)
				}
				if he.RetryAfter != tc.want {
					t.Fatalf("%s: RetryAfter = %v, want %v", he.URL, he.RetryAfter, tc.want)
				}
				if got := resilience.Classify(context.Background(), he); got != resilience.ClassOverload {
					t.Fatalf("%s: Classify = %v, want overload", he.URL, got)
				}
			}
		})
	}
}
