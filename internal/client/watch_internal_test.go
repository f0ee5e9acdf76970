package client

import (
	"context"
	"testing"

	"openflame/internal/discovery"
	"openflame/internal/search"
	"openflame/internal/wire"
)

// TestWatchSiblingReInitDeliversOnlyNetChange drives the failover
// reconciliation with no network and no race: a sibling that cannot honor
// the cursor re-snapshots, and its rows carry ITS name in Source. Rows of
// one replica set are equal when their content is, so an unchanged re-init
// must deliver nothing, and one changed row must deliver exactly that row.
func TestWatchSiblingReInitDeliversOnlyNetChange(t *testing.T) {
	c := &Client{}
	w := &Watch{events: make(chan WatchEvent, 4)}
	st := &watchState{}
	g := planGroup{Key: "city"}
	ctx := context.Background()

	rows := func(source, milk string) []search.Result {
		return []search.Result{
			{NodeID: 1, Name: "milk", Score: 2, Source: source, Tags: map[string]string{"stock": milk}},
			{NodeID: 2, Name: "bread", Score: 1, Source: source, Tags: map[string]string{"stock": "3"}},
		}
	}
	apply := func(server string, results []search.Result, seq uint64) {
		t.Helper()
		ev := wire.Event{Type: wire.EventInit, Log: 1, Seq: seq, Results: results}
		if !c.applyWatchEvent(ctx, g, discovery.Announcement{Name: server}, st, ev, w) {
			t.Fatalf("init from %s did not count as progress", server)
		}
	}
	next := func() (WatchEvent, bool) {
		select {
		case ev := <-w.events:
			return ev, true
		default:
			return WatchEvent{}, false
		}
	}

	apply("city-0", rows("city-0", "5"), 7)
	if ev, ok := next(); !ok || !ev.Init || len(ev.Results) != 2 {
		t.Fatalf("first init: got %+v (delivered=%v), want the 2-row snapshot", ev, ok)
	}

	// Failover: city-1 re-snapshots the same content under its own name.
	apply("city-1", rows("city-1", "5"), 7)
	if ev, ok := next(); ok {
		t.Fatalf("unchanged sibling re-init delivered a spurious event: %+v", ev)
	}

	// One row really changed on the sibling: exactly that row is delivered.
	apply("city-1", rows("city-1", "4"), 8)
	ev, ok := next()
	if !ok {
		t.Fatal("changed row was not delivered")
	}
	if ev.Init || len(ev.Removed) != 0 || len(ev.Updated) != 1 || ev.Updated[0].NodeID != 1 ||
		ev.Updated[0].Tags.Get("stock") != "4" {
		t.Fatalf("delta = %+v, want exactly node 1 updated to stock=4", ev)
	}
	if ev, ok := next(); ok {
		t.Fatalf("extra event after the delta: %+v", ev)
	}
}
