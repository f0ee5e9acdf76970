package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"openflame/internal/mapserver"
	"openflame/internal/osm"
	"openflame/internal/store"
	"openflame/internal/wire"
	"openflame/internal/worldgen"
)

func TestFlagDefaultsAndRoundTrip(t *testing.T) {
	fs, o := newFlagSet("flame-server")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.addr != ":8080" || o.mapPath != "" {
		t.Fatalf("defaults changed: %+v", o)
	}

	fs, o = newFlagSet("flame-server")
	err := fs.Parse([]string{
		"-map", "city.osm.xml", "-addr", ":9090", "-name", "my-map",
		"-public-url", "http://example:9090",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.mapPath != "city.osm.xml" || o.addr != ":9090" || o.name != "my-map" {
		t.Fatalf("flags lost: %+v", o)
	}
	if got := o.advertiseURL(); got != "http://example:9090" {
		t.Fatalf("advertiseURL = %q", got)
	}
}

func TestAdvertiseURLDefaultsToAddr(t *testing.T) {
	o := &options{addr: ":8080"}
	if got := o.advertiseURL(); got != "http://:8080" {
		t.Fatalf("advertiseURL = %q", got)
	}
}

// TestBuildServerFromMapFile smoke-tests the full startup path: a
// generated store map written to disk, loaded through the flags, and
// served as a map server with coverage.
func TestBuildServerFromMapFile(t *testing.T) {
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	path := filepath.Join(t.TempDir(), "city.osm.xml")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Outdoor.WriteXML(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fs, o := newFlagSet("flame-server")
	if err := fs.Parse([]string{"-map", path, "-name", "smoke"}); err != nil {
		t.Fatal(err)
	}
	srv, err := o.buildServer()
	if err != nil {
		t.Fatal(err)
	}
	if srv.Name() != "smoke" {
		t.Fatalf("server name = %q", srv.Name())
	}
	if srv.Store().View().NodeCount() == 0 {
		t.Fatal("loaded map is empty")
	}
	if len(srv.Info().Coverage) == 0 {
		t.Fatal("server advertises no coverage")
	}
}

func TestBuildServerMissingMapFails(t *testing.T) {
	o := &options{mapPath: filepath.Join(t.TempDir(), "absent.xml")}
	if _, err := o.buildServer(); err == nil {
		t.Fatal("missing map accepted")
	}
}

// TestFlagSurface pins the size of the CLI surface: a flag is a second path
// somebody has to test, so adding one should be a deliberate act. The 13
// are the ten deployment settings (map, snapshot, addr, name, public-url,
// register, replica-set, reannounce, sync-peers, sync-interval) plus the
// three knobs deployments vary (query-cache-entries, max-inflight,
// consistency-wait).
func TestFlagSurface(t *testing.T) {
	fs, _ := newFlagSet("flame-server")
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 13 {
		t.Fatalf("flame-server has %d flags, want 13", n)
	}
}

func TestQueryCacheFlags(t *testing.T) {
	fs, o := newFlagSet("flame-server")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.queryCacheEntries != defaultQueryCacheEntries {
		t.Fatalf("cache flag default changed: %+v", o)
	}

	fs, o = newFlagSet("flame-server")
	if err := fs.Parse([]string{"-query-cache-entries", "128"}); err != nil {
		t.Fatal(err)
	}
	if o.queryCacheEntries != 128 {
		t.Fatalf("queryCacheEntries = %d, want 128", o.queryCacheEntries)
	}
}

// TestBuildServerWiresQueryCache smoke-tests that the flags reach the
// running server: with the cache on, a repeated query hits; a size of zero
// turns it off.
func TestBuildServerWiresQueryCache(t *testing.T) {
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	path := filepath.Join(t.TempDir(), "city.osm.xml")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Outdoor.WriteXML(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fs, o := newFlagSet("flame-server")
	if err := fs.Parse([]string{"-map", path, "-name", "cached", "-query-cache-entries", "16"}); err != nil {
		t.Fatal(err)
	}
	srv, err := o.buildServer()
	if err != nil {
		t.Fatal(err)
	}
	req := wire.GeocodeRequest{Query: "1st Street", Limit: 1}
	srv.Geocode(req)
	srv.Geocode(req)
	if stats := srv.QueryCacheStats(); stats.Hits == 0 {
		t.Fatalf("repeated query missed: %+v", stats)
	}

	fs, o = newFlagSet("flame-server")
	if err := fs.Parse([]string{"-map", path, "-query-cache-entries", "0"}); err != nil {
		t.Fatal(err)
	}
	srv, err = o.buildServer()
	if err != nil {
		t.Fatal(err)
	}
	srv.Geocode(req)
	srv.Geocode(req)
	if stats := srv.QueryCacheStats(); stats != (mapserver.QueryCacheStats{}) {
		t.Fatalf("disabled cache reports activity: %+v", stats)
	}
}

// TestMembershipFlags: the live-federation flags round-trip and the peer
// list parses.
func TestMembershipFlags(t *testing.T) {
	fs, o := newFlagSet("flame-server")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.registerURL != "" || o.replicaSet != "" || o.syncPeers != "" {
		t.Fatalf("membership defaults changed: %+v", o)
	}
	if got := o.peerList(); len(got) != 0 {
		t.Fatalf("empty -sync-peers parsed as %v", got)
	}

	fs, o = newFlagSet("flame-server")
	err := fs.Parse([]string{
		"-register", "http://127.0.0.1:5301",
		"-replica-set", "city",
		"-sync-peers", "http://p1:8080, http://p2:8080,,",
		"-sync-interval", "2s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.registerURL != "http://127.0.0.1:5301" || o.replicaSet != "city" {
		t.Fatalf("membership flags lost: %+v", o)
	}
	if got := o.peerList(); len(got) != 2 || got[0] != "http://p1:8080" || got[1] != "http://p2:8080" {
		t.Fatalf("peerList = %v", got)
	}
	if o.syncInterval != 2*time.Second {
		t.Fatalf("syncInterval = %v", o.syncInterval)
	}
}

// TestValidateRejectsReplicaSetWithoutRegister: the flag combination
// would silently print rs-less records; it must fail loudly instead.
func TestValidateRejectsReplicaSetWithoutRegister(t *testing.T) {
	o := &options{replicaSet: "city"}
	if err := o.validate(); err == nil {
		t.Fatal("-replica-set without -register accepted")
	}
	o = &options{replicaSet: "city", registerURL: "http://127.0.0.1:5301"}
	if err := o.validate(); err != nil {
		t.Fatalf("valid combination rejected: %v", err)
	}
	if err := (&options{}).validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

// TestSnapshotPersistenceRoundTrip: -snapshot restores the map AND the
// per-node change versions a previous run persisted, so a restarted
// replica mints versions above its history instead of from 1.
func TestSnapshotPersistenceRoundTrip(t *testing.T) {
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "city.osm.xml")
	f, err := os.Create(xmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Outdoor.WriteXML(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	snapPath := filepath.Join(dir, "city.snap")

	// Run 1: boots from XML (snapshot absent), takes two writes, persists.
	fs, o := newFlagSet("flame-server")
	if err := fs.Parse([]string{"-map", xmlPath, "-snapshot", snapPath, "-name", "city"}); err != nil {
		t.Fatal(err)
	}
	srv, err := o.buildServer()
	if err != nil {
		t.Fatal(err)
	}
	var nodeID osm.NodeID
	srv.Store().Map().Nodes(func(n *osm.Node) bool { nodeID = n.ID; return false })
	for i := 0; i < 2; i++ {
		if !srv.ApplyInventoryUpdate(nodeID, osm.Tags{"name": "persisted"}) {
			t.Fatal("update refused")
		}
	}
	if err := o.saveSnapshot(srv); err != nil {
		t.Fatal(err)
	}

	// The saved file holds the writes in its map AND in its persisted
	// index: the index attaches, and its postings find the renamed node.
	sm, _, idx, err := osm.LoadSnapshotFileIndexed(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.NewWithIndex(sm, idx)
	if err != nil {
		t.Fatalf("saved index does not attach: %v", err)
	}
	if got := st.View().TokenPostings("persisted"); len(got) != 1 || got[0] != nodeID {
		t.Fatalf("saved index postings for the renamed node = %v, want [%d]", got, nodeID)
	}

	// Run 2: boots from the snapshot; the node resumes at version 2.
	fs2, o2 := newFlagSet("flame-server")
	if err := fs2.Parse([]string{"-snapshot", snapPath, "-name", "city"}); err != nil {
		t.Fatal(err)
	}
	srv2, err := o2.buildServer()
	if err != nil {
		t.Fatal(err)
	}
	if got := srv2.Store().NodeVersion(nodeID); got != 2 {
		t.Fatalf("restored node version = %d, want 2", got)
	}
	if got := srv2.Store().Map().Node(nodeID).Tags.Get("name"); got != "persisted" {
		t.Fatalf("restored tags lost the write: %q", got)
	}
}

// TestValidateReannounceRequiresRegister: a renewal loop with no registry
// to renew against is a misconfiguration, not a silent no-op.
func TestValidateReannounceRequiresRegister(t *testing.T) {
	o := &options{reannounce: 30 * time.Second}
	if err := o.validate(); err == nil {
		t.Fatal("-reannounce without -register accepted")
	}
	o = &options{reannounce: 30 * time.Second, registerURL: "http://127.0.0.1:5301"}
	if err := o.validate(); err != nil {
		t.Fatalf("valid combination rejected: %v", err)
	}
}
