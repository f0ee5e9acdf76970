// Package core assembles complete OpenFLAME federations: the DNS discovery
// tree, any number of map servers on live HTTP endpoints, and clients wired
// to both. It is the top of the dependency stack — examples, integration
// tests, and the experiment harness all deploy federations through this
// package.
package core

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"

	"openflame/internal/align"
	"openflame/internal/client"
	"openflame/internal/discovery"
	"openflame/internal/dns"
	"openflame/internal/mapserver"
	"openflame/internal/netsim"
	"openflame/internal/worldgen"
)

// Federation is an in-process OpenFLAME deployment: a two-level DNS tree
// (root delegating the spatial zone) on an in-memory transport, a shared
// registry, and a set of HTTP map servers.
type Federation struct {
	Mem      *dns.MemExchanger
	Root     *dns.Zone
	Loc      *dns.Zone
	Registry *discovery.Registry
	Servers  []*ServerHandle

	rootAddr string
}

// ServerHandle pairs a map server with its live HTTP endpoint.
type ServerHandle struct {
	Server *mapserver.Server
	HTTP   *httptest.Server
	URL    string
	// Faults, when non-nil, is the netsim fault injector scripted between
	// the endpoint and the server (see AddFaultyServer).
	Faults *netsim.FaultSchedule
	// ReplicaSet is the replica-set id the server registered under ("" for
	// solo members); Syncer pulls anti-entropy from the set's siblings.
	ReplicaSet string
	Syncer     *mapserver.Syncer
	// Draining marks a member withdrawn from discovery but still serving
	// (see Drain).
	Draining bool
}

// NewFederation builds the DNS tree: a root zone for "flame.arpa."
// delegating the spatial suffix to a second authoritative zone.
func NewFederation() (*Federation, error) {
	mem := dns.NewMemExchanger()
	root := dns.NewZone("flame.arpa.")
	locZone := dns.NewZone(discovery.DefaultSuffix)
	if err := root.Add(dns.RR{Name: discovery.DefaultSuffix, Type: dns.TypeNS, TTL: 300,
		Target: "ns." + discovery.DefaultSuffix}); err != nil {
		return nil, err
	}
	if err := root.Add(dns.RR{Name: "ns." + discovery.DefaultSuffix, Type: dns.TypeA, TTL: 300,
		IP: net.IPv4(10, 0, 0, 2)}); err != nil {
		return nil, err
	}
	mem.Register("10.0.0.1:53", root)
	mem.Register("10.0.0.2:53", locZone)
	return &Federation{
		Mem:      mem,
		Root:     root,
		Loc:      locZone,
		Registry: discovery.NewRegistry(locZone, discovery.DefaultSuffix),
		rootAddr: "10.0.0.1:53",
	}, nil
}

// NewResolver creates a fresh caching resolver against the federation's
// DNS tree (each client device runs its own).
func (f *Federation) NewResolver() *dns.Resolver {
	return dns.NewResolver(f.Mem, []dns.RootHint{{Name: "ns.flame.arpa.", Addr: f.rootAddr}})
}

// AddServer starts the map server over HTTP and registers its coverage in
// the discovery DNS.
func (f *Federation) AddServer(srv *mapserver.Server) (*ServerHandle, error) {
	return f.addServer(srv, nil, "")
}

// AddFaultyServer starts the map server behind a netsim fault injector, so
// tests and experiments can script the member's failure behaviour
// (error bursts, blackholes, flapping) while the server itself stays
// untouched. A nil schedule serves requests directly.
func (f *Federation) AddFaultyServer(srv *mapserver.Server, faults *netsim.FaultSchedule) (*ServerHandle, error) {
	return f.addServer(srv, faults, "")
}

// AddReplica starts the map server as a member of the named replica set:
// it registers under the set's id (clients then contact ONE member of the
// set per request, failing over between them) and is wired for anti-entropy
// with every current sibling — in both directions, so an inventory update
// landing on any member reaches the others on the next sync round. Usable
// under live traffic: clients pick the new member up within one
// announcement TTL.
func (f *Federation) AddReplica(srv *mapserver.Server, replicaSet string) (*ServerHandle, error) {
	if replicaSet == "" {
		return nil, fmt.Errorf("core: AddReplica needs a replica-set id")
	}
	return f.addServer(srv, nil, replicaSet)
}

// AddFaultyReplica is AddReplica behind a netsim fault injector.
func (f *Federation) AddFaultyReplica(srv *mapserver.Server, replicaSet string, faults *netsim.FaultSchedule) (*ServerHandle, error) {
	if replicaSet == "" {
		return nil, fmt.Errorf("core: AddFaultyReplica needs a replica-set id")
	}
	return f.addServer(srv, faults, replicaSet)
}

func (f *Federation) addServer(srv *mapserver.Server, faults *netsim.FaultSchedule, replicaSet string) (*ServerHandle, error) {
	var handler http.Handler = srv.Handler()
	if faults != nil {
		handler = faults.Wrap(handler)
	}
	ts := httptest.NewServer(handler)
	h := &ServerHandle{
		Server: srv, HTTP: ts, URL: ts.URL, Faults: faults,
		ReplicaSet: replicaSet,
		Syncer:     mapserver.NewSyncer(srv, ts.Client()),
	}
	var err error
	if replicaSet != "" {
		err = f.Registry.RegisterReplica(srv.Info(), ts.URL, replicaSet)
	} else {
		err = f.Registry.Register(srv.Info(), ts.URL)
	}
	if err != nil {
		ts.Close()
		return nil, fmt.Errorf("core: register %s: %w", srv.Name(), err)
	}
	// Wire anti-entropy both ways with the existing siblings.
	if replicaSet != "" {
		for _, sib := range f.Servers {
			if sib.ReplicaSet != replicaSet {
				continue
			}
			h.Syncer.AddPeer(sib.URL)
			sib.Syncer.AddPeer(h.URL)
		}
	}
	f.Servers = append(f.Servers, h)
	return h, nil
}

// FindServer returns the handle with the given server name, or nil.
func (f *Federation) FindServer(name string) *ServerHandle {
	for _, h := range f.Servers {
		if h.Server.Name() == name {
			return h
		}
	}
	return nil
}

// Drain withdraws the named member from discovery while it keeps serving:
// the membership epoch advances and its records leave the zone, so new
// fan-outs stop including it within one announcement TTL, while requests
// already holding its URL complete normally. A drained member can be
// removed for good with RemoveServer once traffic has moved off.
func (f *Federation) Drain(name string) (*ServerHandle, error) {
	h := f.FindServer(name)
	if h == nil {
		return nil, fmt.Errorf("core: drain: no server %q", name)
	}
	if !h.Draining {
		f.Registry.UnregisterServer(name)
		h.Draining = true
	}
	return h, nil
}

// RemoveServer deregisters the named member (if not already drained),
// detaches it from its siblings' anti-entropy, closes its HTTP endpoint,
// and drops it from the federation. Removal models a member dying, not
// draining: live connections — including standing watch streams — are
// severed rather than waited out, since a healthy stream would otherwise
// hold the endpoint open forever. Usable under live traffic: after one
// announcement TTL no client request should touch the departed member.
func (f *Federation) RemoveServer(name string) error {
	h := f.FindServer(name)
	if h == nil {
		return fmt.Errorf("core: remove: no server %q", name)
	}
	if !h.Draining {
		f.Registry.UnregisterServer(name)
	}
	out := f.Servers[:0]
	for _, s := range f.Servers {
		if s != h {
			out = append(out, s)
		}
	}
	f.Servers = out
	for _, sib := range f.Servers {
		if h.ReplicaSet != "" && sib.ReplicaSet == h.ReplicaSet {
			sib.Syncer.RemovePeer(h.URL)
		}
	}
	h.HTTP.CloseClientConnections()
	h.HTTP.Close()
	return nil
}

// SyncReplicas runs one anti-entropy round on every member: each pulls its
// siblings' change logs to their heads. One round fully converges updates
// that originated anywhere in a set (every sibling pulls from the origin
// directly); the returned count is the number of changes applied and err
// the first pull failure.
func (f *Federation) SyncReplicas(ctx context.Context) (applied int, err error) {
	for _, h := range f.Servers {
		n, herr := h.Syncer.SyncOnce(ctx)
		applied += n
		if herr != nil && err == nil {
			err = herr
		}
	}
	return applied, err
}

// NewClient creates an OpenFLAME client with its own resolver cache.
func (f *Federation) NewClient() *client.Client {
	disc := discovery.NewClient(f.NewResolver(), discovery.DefaultSuffix)
	c := client.New(disc, http.DefaultClient)
	if world := f.FindServer("world-map"); world != nil {
		c.WorldURL = world.URL
	}
	return c
}

// Close shuts down all HTTP servers. Like RemoveServer, it severs live
// connections (standing watch streams would otherwise hold Close open).
func (f *Federation) Close() {
	for _, h := range f.Servers {
		h.HTTP.CloseClientConnections()
		h.HTTP.Close()
	}
}

// DeployWorld stands up the full paper scenario over a generated world: a
// "world-map" server for the outdoor city (the Google-Maps analogue) and one
// independently-operated server per store (local frame, precise alignment
// fitted from survey correspondences, beacons and fiducials enabled). Every
// server — world and store alike — preprocesses its routing graph into a
// contraction hierarchy (Figure 1), and DeployWorld waits for those
// background builds so callers see deterministic query behavior.
func DeployWorld(w *worldgen.World) (*Federation, error) {
	f, err := NewFederation()
	if err != nil {
		return nil, err
	}
	citySrv, err := mapserver.New(mapserver.Config{Name: "world-map", Map: w.Outdoor, UseCH: true})
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.AddServer(citySrv); err != nil {
		f.Close()
		return nil, err
	}
	for _, store := range w.Stores {
		ga, err := align.FitGeo(store.Correspondences)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("core: align %s: %w", store.Map.Name, err)
		}
		srv, err := mapserver.New(mapserver.Config{
			Name:      worldgenServerName(store),
			Map:       store.Map,
			UseCH:     true,
			Alignment: ga,
			Beacons:   store.Beacons,
			Fiducials: store.Fiducials,
			Landmarks: store.Landmarks,
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.AddServer(srv); err != nil {
			f.Close()
			return nil, err
		}
	}
	// Hierarchies build in the background; a deployed-world fixture should
	// answer queries the same way on every run, so wait for the swaps here.
	for _, h := range f.Servers {
		if err := h.Server.WaitCH(context.Background()); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

func worldgenServerName(b *worldgen.IndoorBundle) string {
	return b.PortalID[len("portal-"):] // "portal-corner-grocery" → "corner-grocery"
}
