package store

import (
	"fmt"
	"math"
	"testing"

	"openflame/internal/geo"
	"openflame/internal/osm"
)

func changelogFixture(t *testing.T) (*Store, osm.NodeID) {
	t.Helper()
	mb := osm.NewBuilder("log-test", osm.Frame{Kind: osm.FrameGeodetic})
	id := mb.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40.44, Lng: -79.99},
		Tags: osm.Tags{"name": "Shelf A"}})
	m := mb.Build()
	s := New(m)
	return s, id
}

// TestChangeLogRecordsTagUpdates: UpdateNodeTags appends monotonically
// sequence-numbered records.
func TestChangeLogRecordsTagUpdates(t *testing.T) {
	s, id := changelogFixture(t)
	if got := s.View().Seq; got != 0 {
		t.Fatalf("fresh store ChangeSeq = %d", got)
	}
	for i := 1; i <= 3; i++ {
		if !s.UpdateNodeTags(id, osm.Tags{"name": fmt.Sprintf("Shelf v%d", i)}) {
			t.Fatalf("update %d refused", i)
		}
		if got := s.View().Seq; got != uint64(i) {
			t.Fatalf("ChangeSeq after %d updates = %d", i, got)
		}
	}
	v := s.View()
	all := v.ChangesSince(0, 0)
	if len(all) != 3 {
		t.Fatalf("ChangesSince(0) = %d records", len(all))
	}
	for i, ch := range all {
		if ch.Seq != uint64(i+1) || ch.NodeID != id {
			t.Fatalf("record %d = %+v", i, ch)
		}
	}
	if all[2].Tags.Get("name") != "Shelf v3" {
		t.Fatalf("latest record tags = %v", all[2].Tags)
	}
	// Windowing: since=2 returns only the third record; a limit truncates.
	if got := v.ChangesSince(2, 0); len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("ChangesSince(2) = %+v", got)
	}
	if got := v.ChangesSince(0, 2); len(got) != 2 || got[1].Seq != 2 {
		t.Fatalf("ChangesSince(0, limit 2) = %+v", got)
	}
	if got := v.ChangesSince(3, 0); len(got) != 0 {
		t.Fatalf("ChangesSince(head) = %+v", got)
	}
}

// TestChangeLogSnapshotIsolation: the logged tag set is a copy — mutating
// the caller's map afterwards must not corrupt history.
func TestChangeLogSnapshotIsolation(t *testing.T) {
	s, id := changelogFixture(t)
	tags := osm.Tags{"name": "Original"}
	s.UpdateNodeTags(id, tags)
	tags["name"] = "Mutated after the fact"
	if got := s.View().ChangesSince(0, 0)[0].Tags.Get("name"); got != "Original" {
		t.Fatalf("logged tags aliased the caller's map: %q", got)
	}
}

// TestChangeLogCompaction: the log is bounded (amortized compaction at 2x
// the cap, retaining at least changeLogCap entries); FirstChangeSeq
// advances and ChangesSince degrades to the retained suffix.
func TestChangeLogCompaction(t *testing.T) {
	s, id := changelogFixture(t)
	total := 2*changeLogCap + 10
	for i := 0; i < total; i++ {
		s.UpdateNodeTags(id, osm.Tags{"name": fmt.Sprintf("v%d", i)})
	}
	v := s.View()
	if got := v.Seq; got != uint64(total) {
		t.Fatalf("Seq = %d, want %d", got, total)
	}
	// Compaction fired once, at append 2*cap+1, keeping the last cap
	// entries (seq cap+2 .. 2*cap+1); the 9 appends after it grew the
	// retained window again.
	if got := v.FirstChangeSeq(); got != uint64(changeLogCap+2) {
		t.Fatalf("FirstChangeSeq = %d, want %d", got, changeLogCap+2)
	}
	// A cursor inside the compacted prefix gets the whole retained suffix.
	got := v.ChangesSince(1, 0)
	if len(got) != changeLogCap+9 || got[0].Seq != v.FirstChangeSeq() {
		t.Fatalf("compacted pull: %d records starting at %d", len(got), got[0].Seq)
	}
	// A cursor in the retained window resumes exactly after itself.
	mid := v.FirstChangeSeq() + 5
	got = v.ChangesSince(mid, 0)
	if got[0].Seq != mid+1 {
		t.Fatalf("mid-window pull starts at %d, want %d", got[0].Seq, mid+1)
	}
}

// TestChangesSinceAbsurdCursor: `since` is wire input; a cursor past the
// head — up to and including MaxUint64 — must answer empty, not panic on
// an overflowed slice index.
func TestChangesSinceAbsurdCursor(t *testing.T) {
	s, id := changelogFixture(t)
	for i := 0; i < 3; i++ {
		s.UpdateNodeTags(id, osm.Tags{"name": fmt.Sprintf("v%d", i)})
	}
	for _, since := range []uint64{3, 4, 1 << 62, math.MaxUint64} {
		if got := s.View().ChangesSince(since, 0); len(got) != 0 {
			t.Fatalf("ChangesSince(%d) = %+v, want empty", since, got)
		}
	}
}

// TestChangeLogRecordsPosition: every change record carries the node's
// (immutable) position — the geometry key the watch hub routes deltas by.
func TestChangeLogRecordsPosition(t *testing.T) {
	s, id := changelogFixture(t)
	s.UpdateNodeTags(id, osm.Tags{"name": "Shelf B"})
	chs := s.View().ChangesSince(0, 0)
	if len(chs) != 1 {
		t.Fatalf("ChangesSince(0) = %d records", len(chs))
	}
	want := geo.LatLng{Lat: 40.44, Lng: -79.99}
	if chs[0].Pos != want {
		t.Fatalf("change Pos = %v, want %v", chs[0].Pos, want)
	}
}

// TestChangeNotifySignals: appending to the change log wakes the notify
// channel exactly as a coalesced signal — at least one receive becomes
// ready, and a drained channel re-arms on the next append.
func TestChangeNotifySignals(t *testing.T) {
	s, id := changelogFixture(t)
	notify := s.ChangeNotify()
	select {
	case <-notify:
		t.Fatalf("fresh store signalled notify")
	default:
	}
	s.UpdateNodeTags(id, osm.Tags{"name": "v1"})
	s.UpdateNodeTags(id, osm.Tags{"name": "v2"}) // coalesces into the same signal
	select {
	case <-notify:
	default:
		t.Fatalf("no notify after appends")
	}
	select {
	case <-notify:
		t.Fatalf("coalesced signal delivered twice")
	default:
	}
	s.UpdateNodeTags(id, osm.Tags{"name": "v3"})
	select {
	case <-notify:
	default:
		t.Fatalf("notify did not re-arm after drain")
	}
}
