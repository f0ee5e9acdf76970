// Command flame-server runs one OpenFLAME map server over an OSM XML map.
// With -register it joins the federation through a flame-dns registry
// admin endpoint on startup and deregisters on SIGTERM before draining
// in-flight requests; without it, it prints the DNS TXT records the
// operator should install in their spatial zone (§5.1). -replica-set and
// -sync-peers run the server as one member of a replica set, pulling
// anti-entropy from its siblings.
//
// Usage:
//
//	flame-server -map city.osm.xml -addr :8080 -name my-map [-public-url http://host:8080]
//	flame-server -map city.osm.xml -register http://127.0.0.1:5301 \
//	    -replica-set city -sync-peers http://peer1:8080,http://peer2:8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"openflame/internal/discovery"
	"openflame/internal/mapserver"
	"openflame/internal/osm"
	"openflame/internal/s2cell"
	"openflame/internal/store"
)

// options is the CLI surface, separated from main so tests can verify the
// flags round-trip into the server configuration.
type options struct {
	mapPath           string
	snapshotPath      string
	addr              string
	name              string
	publicURL         string
	queryCacheEntries int
	registerURL       string
	replicaSet        string
	reannounce        time.Duration
	syncPeers         string
	syncInterval      time.Duration
	consistencyWait   time.Duration
	maxInFlight       int
}

// defaultQueryCacheEntries sizes the query result cache when the operator
// gives no explicit size.
const defaultQueryCacheEntries = 4096

func newFlagSet(name string) (*flag.FlagSet, *options) {
	o := &options{}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.StringVar(&o.mapPath, "map", "", "OSM XML map file (required unless -snapshot exists)")
	fs.StringVar(&o.snapshotPath, "snapshot", "", "binary snapshot path: loaded instead of -map when it exists (restoring per-node change versions), rewritten on shutdown — so a restarted replica resumes versioning above its persisted history")
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.name, "name", "", "server name (default: map name)")
	fs.StringVar(&o.publicURL, "public-url", "", "URL to advertise in DNS (default http://<addr>)")
	fs.IntVar(&o.queryCacheEntries, "query-cache-entries", defaultQueryCacheEntries,
		"query result cache capacity (entries per map generation, LRU-evicted; 0 = no cache)")
	fs.StringVar(&o.registerURL, "register", "", "flame-dns registry admin URL (e.g. http://127.0.0.1:5301): announce on startup, deregister on SIGTERM")
	fs.StringVar(&o.replicaSet, "replica-set", "", "replica-set id to register under (requires -register); siblings share load and fail over for each other")
	fs.DurationVar(&o.reannounce, "reannounce", 0, "re-announce to the registry on this interval (requires -register): renews the registration lease when the registry enforces one, so a member that dies silently is evicted instead of advertised forever (0 = announce once)")
	fs.StringVar(&o.syncPeers, "sync-peers", "", "comma-separated sibling replica URLs to pull anti-entropy from")
	fs.DurationVar(&o.syncInterval, "sync-interval", 5*time.Second, "anti-entropy pull interval (with -sync-peers)")
	fs.DurationVar(&o.consistencyWait, "consistency-wait", 0, "how long a read carrying a session mark this replica has not caught up to may wait for anti-entropy before answering 412 stale-replica (0 = refuse immediately)")
	fs.IntVar(&o.maxInFlight, "max-inflight", -1, "admission control: max concurrently executing requests; as many more queue briefly, the rest are shed with 429 (-1 = auto: 4×GOMAXPROCS, 0 = no admission control)")
	return fs, o
}

// inFlightBound resolves the -max-inflight sentinel: -1 sizes the bound to
// the machine (a few slots per core keeps the CPU busy through the brief
// I/O gaps of a request without letting hundreds of computations thrash),
// 0 disables admission control, positive values pass through.
func (o *options) inFlightBound() int {
	if o.maxInFlight < 0 {
		return 4 * runtime.GOMAXPROCS(0)
	}
	return o.maxInFlight
}

// httpServer builds the serving http.Server with the ingest timeouts.
// Without them one slow-header (slowloris) or slow-body client holds a
// connection — and its handler resources — forever. WriteTimeout stays
// unset: per-request deadlines belong to the client and the admission
// layer, not a blanket write cap that would sever a legitimately slow
// route response or a /v1/watch stream.
func httpServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// validate rejects flag combinations that would silently misbehave.
func (o *options) validate() error {
	if o.replicaSet != "" && o.registerURL == "" {
		return fmt.Errorf("-replica-set requires -register: without a registry the printed records " +
			"would carry no rs= tag and clients would treat the siblings as independent servers")
	}
	if o.reannounce > 0 && o.registerURL == "" {
		return fmt.Errorf("-reannounce requires -register: there is no registry to renew a lease with")
	}
	return nil
}

// peerList splits -sync-peers into URLs, dropping empties.
func (o *options) peerList() []string {
	var out []string
	for _, p := range strings.Split(o.syncPeers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// loadMap reads the served map: the binary snapshot when -snapshot names
// an existing file (recovering persisted node versions and the persisted
// serving index), else the OSM XML.
func (o *options) loadMap() (*osm.Map, map[osm.NodeID]uint64, *osm.IndexData, error) {
	if o.snapshotPath != "" {
		// LoadSnapshotFileIndexed memory-maps the snapshot where the
		// platform allows, aliasing the columns — and any persisted index —
		// zero-copy instead of reading them onto the heap.
		m, vers, idx, err := osm.LoadSnapshotFileIndexed(o.snapshotPath)
		if err == nil {
			return m, vers, idx, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, nil, nil, fmt.Errorf("load snapshot: %w", err)
		}
		// First boot: fall through to the XML source; the snapshot is
		// written on shutdown.
		if o.mapPath == "" {
			return nil, nil, nil, fmt.Errorf("snapshot %s does not exist yet and no -map was given to bootstrap from", o.snapshotPath)
		}
	}
	f, err := os.Open(o.mapPath)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("open map: %w", err)
	}
	defer f.Close()
	m, err := osm.ReadXML(f)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("parse map: %w", err)
	}
	return m, nil, nil, nil
}

// buildStore attaches the persisted index when the snapshot carried a
// valid one, else runs (and times) the full rebuild — the line it logs is
// the boot-latency tell operators watch for.
func buildStore(m *osm.Map, idx *osm.IndexData) *store.Store {
	if idx != nil {
		if st, err := store.NewWithIndex(m, idx); err == nil {
			log.Printf("index: attached")
			return st
		} else {
			log.Printf("index: attach failed (%v), rebuilding", err)
		}
	}
	start := time.Now()
	st := store.New(m)
	log.Printf("index: rebuilt (%d ms)", time.Since(start).Milliseconds())
	return st
}

// buildServer loads the map and constructs the configured map server.
func (o *options) buildServer() (*mapserver.Server, error) {
	m, vers, idx, err := o.loadMap()
	if err != nil {
		return nil, err
	}
	srv, err := mapserver.New(mapserver.Config{
		Name:              o.name,
		Map:               m,
		Store:             buildStore(m, idx),
		UseCH:             true,
		QueryCacheEntries: o.queryCacheEntries,
		ConsistencyWait:   o.consistencyWait,
		MaxInFlight:       o.inFlightBound(),
	})
	if err != nil {
		return nil, err
	}
	if len(vers) > 0 {
		srv.Store().RestoreNodeVersions(vers)
	}
	return srv, nil
}

// saveSnapshot persists the served map and its node versions for the next
// boot, all taken from one store view. The file is written beside the old
// one, synced, renamed over it and the directory synced, so a crash leaves
// either the old snapshot or the complete new one, never a renamed file
// whose bytes never reached the disk.
func (o *options) saveSnapshot(srv *mapserver.Server) error {
	if o.snapshotPath == "" {
		return nil
	}
	tmp := o.snapshotPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	// Persist the serving indexes alongside the map so the next boot
	// attaches instead of rebuilding.
	vers, v := srv.Store().NodeVersions()
	if err := v.Map().WriteSnapshotVersionsIndexed(f, vers, v.PersistedIndex()); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, o.snapshotPath); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(o.snapshotPath))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// advertiseURL is the URL published in the discovery DNS records.
func (o *options) advertiseURL() string {
	if o.publicURL != "" {
		return o.publicURL
	}
	return "http://" + o.addr
}

func main() {
	fs, o := newFlagSet("flame-server")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if o.mapPath == "" && o.snapshotPath == "" {
		fs.Usage()
		os.Exit(2)
	}
	if err := o.validate(); err != nil {
		log.Fatal(err)
	}
	srv, err := o.buildServer()
	if err != nil {
		log.Fatalf("build server: %v", err)
	}

	url := o.advertiseURL()
	info := srv.Info()
	fmt.Printf("map server %q: %d nodes, %d coverage cells\n", srv.Name(), srv.Store().View().NodeCount(), len(info.Coverage))
	// The hierarchy builds in the background and swaps in atomically; boot
	// is never gated on it — routing falls back to bidirectional Dijkstra
	// until the swap.
	go func() {
		if err := srv.WaitCH(context.Background()); err == nil {
			log.Printf("contraction hierarchies active")
		}
	}()
	if o.registerURL == "" {
		fmt.Println("install these records in your spatial DNS zone:")
		ann := discovery.Announcement{Name: info.Name, URL: url, Services: info.Services, Technologies: info.Technologies}
		for _, tok := range info.Coverage {
			cell := s2cell.FromToken(tok)
			fmt.Printf("  %s 60 IN TXT %q\n", discovery.CellDomain(cell, discovery.DefaultSuffix), discovery.FormatTXT(ann))
		}
	}
	// Serve until interrupted or SIGTERM'd, then leave the federation
	// cleanly: deregister from discovery FIRST (so new fan-outs stop
	// routing here within one TTL) and only then drain in-flight requests;
	// per-request contexts (honored by the handler) are cancelled by the
	// shutdown deadline if a request outlives the drain window.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Bind BEFORE announcing: a server that cannot serve must never enter
	// the zone (authoritative records do not age out on their own — a
	// crashed-before-listening process would stay advertised forever).
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	withdraw := func() {
		if o.registerURL == "" {
			return
		}
		wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer wcancel()
		if err := discovery.WithdrawHTTP(wctx, o.registerURL, info.Name); err != nil {
			log.Printf("deregister: %v (remove the records with the registry admin API)", err)
		} else {
			log.Printf("deregistered from %s", o.registerURL)
		}
	}
	// Catch up BEFORE serving or announcing: node versions live in memory,
	// so a restarted replica must adopt its siblings' state (and versions)
	// first — otherwise its early local writes would carry low versions
	// and lose to stale sibling history. Best effort: a sibling being down
	// must not block startup.
	var syncer *mapserver.Syncer
	if peers := o.peerList(); len(peers) > 0 {
		syncer = mapserver.NewSyncer(srv, nil)
		syncer.SetPeers(peers)
		syncer.Logf = log.Printf
		if applied, err := syncer.SyncOnce(ctx); err != nil {
			log.Printf("initial catch-up incomplete (continuing): %v", err)
		} else if applied > 0 {
			log.Printf("initial catch-up applied %d change(s)", applied)
		}
	}
	// Serve BEFORE announcing: once the registration lands, clients route
	// here immediately — a bound-but-not-serving window would burn their
	// per-server timeouts and trip breakers on the newborn member.
	httpSrv := httpServer(srv.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	log.Printf("listening on %s", o.addr)
	if o.registerURL != "" {
		actx, acancel := context.WithTimeout(ctx, 10*time.Second)
		err := discovery.AnnounceHTTP(actx, o.registerURL, info, url, o.replicaSet)
		acancel()
		if err != nil {
			log.Fatalf("register: %v", err)
		}
		log.Printf("registered with %s (replica set %q)", o.registerURL, o.replicaSet)
		if o.reannounce > 0 {
			// Lease renewal: an identical re-announce is free on the
			// registry (no epoch bump); a failed renewal is transient — the
			// next tick retries well inside any sane lease TTL.
			go func() {
				t := time.NewTicker(o.reannounce)
				defer t.Stop()
				for {
					select {
					case <-ctx.Done():
						return
					case <-t.C:
						actx, acancel := context.WithTimeout(ctx, 10*time.Second)
						if err := discovery.AnnounceHTTP(actx, o.registerURL, info, url, o.replicaSet); err != nil {
							log.Printf("re-announce: %v (retrying in %v)", err, o.reannounce)
						}
						acancel()
					}
				}
			}()
			log.Printf("re-announcing every %v", o.reannounce)
		}
	}
	var syncDone chan struct{}
	if syncer != nil {
		syncDone = make(chan struct{})
		go func() {
			defer close(syncDone)
			syncer.Run(ctx, o.syncInterval)
		}()
		log.Printf("anti-entropy from %d sibling(s) every %v", len(o.peerList()), o.syncInterval)
	}
	select {
	case err := <-errCh:
		withdraw()
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	withdraw()
	log.Printf("shutting down, draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Fatalf("shutdown: %v", err)
	}
	// Persist AFTER the drain AND after the background syncer has stopped:
	// the snapshot then includes every applied write, nothing mutates the
	// map while it serializes, and the next boot resumes node versioning
	// above it.
	if syncDone != nil {
		<-syncDone
	}
	if err := o.saveSnapshot(srv); err != nil {
		log.Fatalf("snapshot: %v", err)
	} else if o.snapshotPath != "" {
		log.Printf("snapshot written to %s", o.snapshotPath)
	}
}
