package openflame

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"openflame/internal/client"
	"openflame/internal/core"
	"openflame/internal/geo"
	"openflame/internal/mapserver"
	"openflame/internal/netsim"
	"openflame/internal/osm"
	"openflame/internal/worldgen"
)

// ============ E17: session consistency under replica lag ================
// The session tokens close the read-path consistency gap replica fan-out
// opened: reads are served by ANY set member, so a client that has
// observed a write on one replica can fail over to a lagging sibling and
// read that write out of existence. E17 measures exactly that scenario —
// the origin takes writes and flaps (every other read fails over), one
// sibling lags frozen at the first write (anti-entropy withheld), one
// stays caught up. Each op is write → fresh read through the origin →
// forced-failover read:
//
//   - no-session: the failover lands on the lagging sibling, which happily
//     answers from its frozen view — the client observes value N and then
//     value 1, a consistency regression on every op (stalereads/op = 1).
//   - session: the lagging sibling cannot vouch for the mark the fresh
//     read minted and answers 412 stale-replica; the plan fails over once
//     more to the caught-up sibling — zero stale reads, zero unserved.
//
// Reported metrics: stalereads/op (reads observing an older value than the
// same client already read) and unserved/op (reads no replica answered).
// The session's consistency costs one extra refused hop per failover read
// (the 412), visible in ns/op.

// e17CloneMap deep-copies a map through the snapshot codec.
func e17CloneMap(b *testing.B, m *osm.Map) *osm.Map {
	b.Helper()
	var buf bytes.Buffer
	if err := m.WriteSnapshotVersionsIndexed(&buf, nil, nil); err != nil {
		b.Fatal(err)
	}
	c, _, _, err := osm.ReadSnapshotIndexed(&buf)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// e17Federation stands up the lag-with-failover scenario: three replicas
// of the outdoor map in set "city". city-0 (the write origin) flaps —
// answers one client request, fails the next, forever — so every op gets
// one fresh read and one forced failover; city-1 is the lagging sibling
// (frozen after one initial sync); city-2 stays caught up. Anti-entropy
// pulls ride a clean side endpoint that bypasses the fault injector, so
// the flap schedule counts client reads only.
func e17Federation(b *testing.B, w *worldgen.World) (fed *core.Federation, origin, lagging, caughtUp *core.ServerHandle, node *osm.Node, pos geo.LatLng) {
	b.Helper()
	fed, err := core.NewFederation()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(fed.Close)
	handles := make([]*core.ServerHandle, 3)
	for i := range handles {
		srv, err := mapserver.New(mapserver.Config{
			Name: fmt.Sprintf("city-%d", i),
			Map:  e17CloneMap(b, w.Outdoor),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			handles[i], err = fed.AddFaultyReplica(srv, "city", netsim.NewFaultSchedule(
				netsim.FaultPhase{Mode: netsim.FaultNone, Requests: 1},
				netsim.FaultPhase{Mode: netsim.FaultError, Requests: 1},
			).Loop())
		} else {
			handles[i], err = fed.AddReplica(srv, "city")
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	origin, lagging, caughtUp = handles[0], handles[1], handles[2]
	clean := httptest.NewServer(origin.Server.Handler())
	b.Cleanup(clean.Close)
	lagging.Syncer.SetPeers([]string{clean.URL})
	caughtUp.Syncer.SetPeers([]string{clean.URL})

	origin.Server.Store().Map().Nodes(func(n *osm.Node) bool {
		if n.Tags.Get(osm.TagName) != "" {
			node = n
			return false
		}
		return true
	})
	if node == nil {
		b.Fatal("no named node")
	}
	return fed, origin, lagging, caughtUp, node, origin.Server.Store().Map().NodePosition(node)
}

func BenchmarkE17_SessionConsistencyUnderLag(b *testing.B) {
	world := worldgen.GenWorld(worldgen.DefaultWorldParams())
	for _, mode := range []struct {
		name    string
		session bool
	}{
		{"no-session", false},
		{"session", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			fed, origin, lagging, caughtUp, node, pos := e17Federation(b, world)
			ctx := context.Background()
			write := func(v int) {
				tags := node.Tags.Clone()
				tags[osm.TagName] = fmt.Sprintf("xyzstock %d", v)
				if !origin.Server.ApplyInventoryUpdate(node.ID, tags) {
					b.Fatal("write refused")
				}
			}
			c := fed.NewClient()
			c.SearchRadiusMeters = 100
			var opts []client.CallOption
			if mode.session {
				opts = append(opts, client.WithSession(client.NewSession()))
			}
			read := func() (int, bool) {
				got := c.SearchV2(ctx, "xyzstock", pos, 5, opts...)
				if len(got) == 0 {
					return 0, false
				}
				var n int
				if _, err := fmt.Sscanf(got[0].Name, "xyzstock %d", &n); err != nil {
					b.Fatalf("unparsable result %q", got[0].Name)
				}
				return n, true
			}
			sync := func(h *core.ServerHandle) {
				if _, err := h.Syncer.SyncOnce(ctx); err != nil {
					b.Fatalf("sync: %v", err)
				}
			}

			// Freeze the lagging sibling at the first write; from here only
			// city-2 follows the origin.
			v := 1
			write(v)
			sync(lagging)
			lagging.Syncer.SetPeers(nil)

			stale, unserved := 0, 0
			lastSeen := 0
			observe := func(got int, ok bool) {
				switch {
				case !ok:
					unserved++
				case got < lastSeen:
					stale++
				default:
					lastSeen = got
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v++
				write(v)
				sync(caughtUp)
				// Fresh read: the origin is up on this request and serves
				// the new value (the session minting its mark).
				got, ok := read()
				if !ok || got != v {
					b.Fatalf("fresh read = (%d, %v), want %d", got, ok, v)
				}
				observe(got, ok)
				// Failover read: the origin fails this request; without a
				// session the frozen sibling serves value 1 — a regression
				// — while the session rides the 412 to the caught-up one.
				observe(read())
			}
			b.StopTimer()
			b.ReportMetric(float64(stale)/float64(b.N), "stalereads/op")
			b.ReportMetric(float64(unserved)/float64(b.N), "unserved/op")
			if mode.session && (stale != 0 || unserved != 0) {
				b.Fatalf("session mode: %d stale, %d unserved", stale, unserved)
			}
			if !mode.session && stale == 0 {
				b.Fatal("no-session mode observed no stale reads: the scenario lost its lag")
			}
		})
	}
}
