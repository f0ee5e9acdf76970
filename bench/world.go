package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"openflame/internal/align"
	"openflame/internal/client"
	"openflame/internal/core"
	"openflame/internal/discovery"
	"openflame/internal/dns"
	"openflame/internal/geo"
	"openflame/internal/mapserver"
	"openflame/internal/osm"
	"openflame/internal/resilience"
	"openflame/internal/store"
	"openflame/internal/worldgen"
)

// worldSpec names one of the benchmark's two worlds. The worlds are fixed:
// -seed drives the request streams, never the maps, so two seeds load the
// same program state and differ only in what they ask of it.
type worldSpec struct {
	name   string
	blocks int
	stores int
	// replicas gives store i's replica-set size (1 = singleton server).
	replicas func(i int) int
}

var (
	// city48: boot cost is dominated by graph.BuildCH x2 on the outdoor
	// graph (2.3 s at 48 blocks on the builder's box): big enough that boot
	// is visible in setup_s, small enough that three boots fit in a run.
	city48 = worldSpec{name: "city48", blocks: 48, stores: 6, replicas: func(int) int { return 1 }}
	// mall12: many small servers with overlapping coverage; stores 0-3 stay
	// singletons so churn_watch has watch targets whose serving replica
	// cannot flip between runs.
	mall12 = worldSpec{name: "mall12", blocks: 12, stores: 20, replicas: func(i int) int {
		if i < 4 {
			return 1
		}
		return 2
	}}
)

// storeFixture is one generated store: its snapshot on disk plus the
// sensing substrate and alignment a server over it is configured with.
type storeFixture struct {
	bundle   *worldgen.IndoorBundle
	name     string
	ga       *align.GeoAlignment
	snap     string
	entrance geo.LatLng // true world position of the door
	replicas int
}

// fixture is a generated world persisted the way flame-server persists
// one: an indexed v2 snapshot per map. Every boot in a run loads fresh maps
// from these files, so a boot never sees a previous boot's writes.
type fixture struct {
	spec     worldSpec
	world    *worldgen.World
	city     worldgen.CityParams
	citySnap string
	stores   []storeFixture

	genS, snapshotWriteS float64
}

func writeSnapshot(path string, m *osm.Map) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteSnapshotVersionsIndexed(f, nil, store.New(m).PersistedIndex()); err != nil {
		f.Close()
		return fmt.Errorf("write snapshot %s: %w", path, err)
	}
	return f.Close()
}

// newFixture generates the world and writes its snapshots under dir.
func newFixture(spec worldSpec, dir string) (*fixture, error) {
	t0 := time.Now()
	city := worldgen.DefaultCityParams()
	city.BlocksX, city.BlocksY = spec.blocks, spec.blocks
	w := worldgen.GenWorld(worldgen.WorldParams{City: city, NumStores: spec.stores, StoreSeed: 11})
	fx := &fixture{spec: spec, world: w, city: city, genS: time.Since(t0).Seconds()}

	t0 = time.Now()
	fx.citySnap = filepath.Join(dir, spec.name+"-city.snap")
	if err := writeSnapshot(fx.citySnap, w.Outdoor); err != nil {
		return nil, err
	}
	for i, b := range w.Stores {
		ga, err := align.FitGeo(b.Correspondences)
		if err != nil {
			return nil, fmt.Errorf("align %s: %w", b.Map.Name, err)
		}
		sf := storeFixture{
			bundle:   b,
			name:     b.PortalID[len("portal-"):],
			ga:       ga,
			snap:     filepath.Join(dir, fmt.Sprintf("%s-store-%d.snap", spec.name, i)),
			entrance: b.Correspondences[len(b.Correspondences)-1].World,
			replicas: spec.replicas(i),
		}
		if err := writeSnapshot(sf.snap, b.Map); err != nil {
			return nil, err
		}
		fx.stores = append(fx.stores, sf)
	}
	fx.snapshotWriteS = time.Since(t0).Seconds()
	return fx, nil
}

// bootTimes splits one boot by the layer that spent it, in seconds.
type bootTimes struct {
	snapshotLoad, storeAttach, serverNew, buildCH, register, first200 float64
}

func (b bootTimes) total() float64 {
	return b.snapshotLoad + b.storeAttach + b.serverNew + b.buildCH + b.register + b.first200
}

// deployment is a booted federation plus the benchmark's own HTTP client
// and the tracer interposed on its three seams.
type deployment struct {
	fed   *core.Federation
	tr    *tracer
	httpc *http.Client
	boot  bootTimes
	// storeHandles[i] lists store i's replicas in AddReplica order.
	storeHandles [][]*core.ServerHandle
	world        *core.ServerHandle
}

// rootHint is the address core.NewFederation registers its root zone on;
// the benchmark builds its own resolvers (core's would bypass the
// dns.Exchanger wrapper) and so has to repeat it.
var rootHint = []dns.RootHint{{Name: "ns.flame.arpa.", Addr: "10.0.0.1:53"}}

// bootServer is flame-server's boot path: mmap the snapshot, attach the
// persisted index, construct the server with production defaults.
func (d *deployment) bootServer(name, snap string, cfg mapserver.Config) (*mapserver.Server, error) {
	t0 := time.Now()
	m, _, idx, err := osm.LoadSnapshotFileIndexed(snap)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", snap, err)
	}
	if idx == nil {
		return nil, fmt.Errorf("load %s: snapshot lost its index", snap)
	}
	t1 := time.Now()
	st, err := store.NewWithIndex(m, idx)
	if err != nil {
		return nil, fmt.Errorf("attach %s: %w", snap, err)
	}
	t2 := time.Now()
	cfg.Name, cfg.Map, cfg.Store = name, m, st
	cfg.UseCH = true
	cfg.QueryCacheEntries = 4096
	cfg.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	srv, err := mapserver.New(cfg)
	if err != nil {
		return nil, err
	}
	d.boot.snapshotLoad += t1.Sub(t0).Seconds()
	d.boot.storeAttach += t2.Sub(t1).Seconds()
	d.boot.serverNew += time.Since(t2).Seconds()
	return srv, nil
}

// addServer mirrors core.Federation.AddServer/AddReplica, which start the
// listener themselves and so leave no seam for the http.Handler wrapper.
func (d *deployment) addServer(srv *mapserver.Server, replicaSet string) (*core.ServerHandle, error) {
	ts := httptest.NewServer(d.tr.handler(srv))
	h := &core.ServerHandle{
		Server: srv, HTTP: ts, URL: ts.URL, ReplicaSet: replicaSet,
		Syncer: mapserver.NewSyncer(srv, d.httpc),
	}
	var err error
	if replicaSet != "" {
		err = d.fed.Registry.RegisterReplica(srv.Info(), ts.URL, replicaSet)
	} else {
		err = d.fed.Registry.Register(srv.Info(), ts.URL)
	}
	if err != nil {
		ts.Close()
		return nil, fmt.Errorf("register %s: %w", srv.Name(), err)
	}
	if replicaSet != "" {
		for _, sib := range d.fed.Servers {
			if sib.ReplicaSet == replicaSet {
				h.Syncer.AddPeer(sib.URL)
				sib.Syncer.AddPeer(h.URL)
			}
		}
	}
	d.fed.Servers = append(d.fed.Servers, h)
	return h, nil
}

// deploy boots the whole federation from the fixture: every server through
// bootServer, hierarchies awaited, members registered in DNS, and one 200
// fetched from each before it returns.
func deploy(fx *fixture, tr *tracer) (*deployment, error) {
	fed, err := core.NewFederation()
	if err != nil {
		return nil, err
	}
	d := &deployment{fed: fed, tr: tr}
	// One transport for every caller, the syncers and the watchers, sized
	// so a 37-server fan-out keeps its connections.
	d.httpc = &http.Client{Transport: tr.roundTripper(&http.Transport{
		MaxIdleConns: 512, MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute,
	})}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()

	type pending struct {
		srv   *mapserver.Server
		set   string
		store int // index into fx.stores, -1 for the world map
	}
	var servers []pending
	city, err := d.bootServer("world-map", fx.citySnap, mapserver.Config{})
	if err != nil {
		return nil, err
	}
	servers = append(servers, pending{srv: city, store: -1})
	for si, sf := range fx.stores {
		for r := 0; r < sf.replicas; r++ {
			name, set := sf.name, ""
			if sf.replicas > 1 {
				name, set = fmt.Sprintf("%s-r%d", sf.name, r), sf.name
			}
			srv, err := d.bootServer(name, sf.snap, mapserver.Config{
				Alignment: sf.ga, Beacons: sf.bundle.Beacons,
				Fiducials: sf.bundle.Fiducials, Landmarks: sf.bundle.Landmarks,
			})
			if err != nil {
				return nil, err
			}
			servers = append(servers, pending{srv: srv, set: set, store: si})
		}
	}
	t0 := time.Now()
	for _, p := range servers {
		if err := p.srv.WaitCH(context.Background()); err != nil {
			return nil, err
		}
	}
	d.boot.buildCH = time.Since(t0).Seconds()

	t0 = time.Now()
	d.storeHandles = make([][]*core.ServerHandle, len(fx.stores))
	for _, p := range servers {
		h, err := d.addServer(p.srv, p.set)
		if err != nil {
			return nil, err
		}
		if p.store < 0 {
			d.world = h
		} else {
			d.storeHandles[p.store] = append(d.storeHandles[p.store], h)
		}
	}
	d.boot.register = time.Since(t0).Seconds()

	t0 = time.Now()
	for _, h := range fed.Servers {
		res, err := d.httpc.Get(h.URL + "/healthz")
		if err != nil {
			return nil, fmt.Errorf("first request to %s: %w", h.Server.Name(), err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("first request to %s: status %d", h.Server.Name(), res.StatusCode)
		}
	}
	d.boot.first200 = time.Since(t0).Seconds()
	ok = true
	return d, nil
}

// clientSet is one device's client with the two layers under it the
// benchmark reads counters from or probes directly.
type clientSet struct {
	c    *client.Client
	res  *dns.Resolver
	disc *discovery.Client
}

// newClient builds one caller's client the way cmd/flame does — its own
// resolver cache and resilience tracker — over the shared transport.
func (d *deployment) newClient() clientSet {
	res := dns.NewResolver(d.tr.exchanger(d.fed.Mem), rootHint)
	disc := discovery.NewClient(res, discovery.DefaultSuffix)
	c := client.New(disc, d.httpc)
	c.WorldURL = d.world.URL
	c.PerServerTimeout = opDeadline
	// Retries and the breaker are on so the resilience layer is in the
	// measured path, as on a deployed client; hedging is off because a
	// load-dependent second request would make request counts unrepeatable.
	c.Resilience = resilience.NewTracker(resilience.Policy{
		Retry:            resilience.RetryPolicy{MaxAttempts: 2, BaseBackoff: 10 * time.Millisecond},
		BreakerThreshold: 5,
		BreakerCooldown:  5 * time.Second,
	})
	return clientSet{c: c, res: res, disc: disc}
}

// close severs every listener and drops idle connections, so the goroutine
// check after a workload sees only what leaked.
func (d *deployment) close() {
	d.fed.Close()
	d.httpc.CloseIdleConnections()
}
