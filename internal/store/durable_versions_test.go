package store

import (
	"bytes"
	"testing"

	"openflame/internal/osm"
)

// TestDurableNodeVersions is the restart-gap regression: node versions
// persisted in the map snapshot make a restarted replica resume versioning
// ABOVE its history, so the writes it mints while isolated beat — instead
// of lose to — the stale history its siblings still hold.
func TestDurableNodeVersions(t *testing.T) {
	s, id := changelogFixture(t)
	for i := 0; i < 3; i++ {
		if !s.UpdateNodeTags(id, osm.Tags{"name": "Shelf", "stock": string(rune('a' + i))}) {
			t.Fatal("update refused")
		}
	}
	if got := s.NodeVersion(id); got != 3 {
		t.Fatalf("version = %d", got)
	}

	// Persist map + versions; "restart" into a fresh store.
	var buf bytes.Buffer
	vers0, v := s.NodeVersions()
	if err := v.Map().WriteSnapshotVersionsIndexed(&buf, vers0, nil); err != nil {
		t.Fatal(err)
	}
	m2, vers, _, err := osm.ReadSnapshotIndexed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if vers[id] != 3 {
		t.Fatalf("persisted version = %d, want 3", vers[id])
	}
	s2 := New(m2)
	if got := s2.NodeVersion(id); got != 0 {
		t.Fatalf("unrestored store already versioned: %d", got)
	}
	before := s2.View()
	s2.RestoreNodeVersions(vers)
	if got := s2.NodeVersion(id); got != 3 {
		t.Fatalf("restored version = %d, want 3", got)
	}
	if s2.View() != before {
		t.Fatal("restoring versions mutated generation or change log")
	}

	// An isolated local write now mints version 4 — and a stale sibling
	// echo at version 3 can no longer roll it back.
	if !s2.UpdateNodeTags(id, osm.Tags{"name": "Shelf", "stock": "fresh"}) {
		t.Fatal("post-restart update refused")
	}
	if got := s2.NodeVersion(id); got != 4 {
		t.Fatalf("post-restart version = %d, want 4 (resumed above history)", got)
	}
	if s2.ApplyReplicatedTags(id, osm.Tags{"name": "Shelf", "stock": "stale"}, 3) {
		t.Fatal("stale history rolled back the post-restart write")
	}
	if got := s2.Map().Node(id).Tags.Get("stock"); got != "fresh" {
		t.Fatalf("stock = %q after stale echo", got)
	}

	// Restore never regresses a version the store has since surpassed.
	s2.RestoreNodeVersions(map[osm.NodeID]uint64{id: 2})
	if got := s2.NodeVersion(id); got != 4 {
		t.Fatalf("restore regressed version to %d", got)
	}
}

// TestSnapshotWithoutVersionsReadsBack: a snapshot written without
// versions reads back and simply carries none.
func TestSnapshotWithoutVersionsReadsBack(t *testing.T) {
	s, id := changelogFixture(t)
	if !s.UpdateNodeTags(id, osm.Tags{"name": "Shelf v2"}) {
		t.Fatal("update refused")
	}
	var buf bytes.Buffer
	if err := s.Map().WriteSnapshotVersionsIndexed(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	m2, vers, _, err := osm.ReadSnapshotIndexed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if vers != nil {
		t.Fatalf("version-less snapshot returned versions: %v", vers)
	}
	if m2.Node(id).Tags.Get("name") != "Shelf v2" {
		t.Fatal("content lost")
	}
}
