// Command flame is the OpenFLAME client CLI: it discovers map servers for
// a location through the spatial DNS and runs location-based services
// against the federation.
//
// Usage:
//
//	flame -root 127.0.0.1:5300 discover  <lat> <lng>
//	flame -root 127.0.0.1:5300 search    <lat> <lng> <query...>
//	flame -root 127.0.0.1:5300 watch     <lat> <lng> <query...>
//	flame -root 127.0.0.1:5300 geocode   -world http://host:8080 <address...>
//	flame -root 127.0.0.1:5300 route     <fromLat> <fromLng> <toLat> <toLng>
//	flame -root 127.0.0.1:5300 tile      <lat> <lng> <zoom> <out.png>
//
// watch subscribes instead of asking: it prints the initial result set,
// then +/- delta lines as the region's inventory churns, until interrupted
// (-timeout defaults to none for this command unless set explicitly).
//
// Resilience flags (-retries, -retry-budget, -hedge-after,
// -breaker-threshold) tune how the client treats an unreliable
// federation; all default off, reproducing the plain client. -session
// runs the command's reads under session consistency: replicas that lag
// behind what the command has already observed refuse and the client fails
// over to a caught-up sibling.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"openflame/internal/client"
	"openflame/internal/discovery"
	"openflame/internal/dns"
	"openflame/internal/geo"
	"openflame/internal/resilience"
	"openflame/internal/tiles"
)

// options is the CLI surface, separated from main so tests can verify the
// flags round-trip into the client configuration.
type options struct {
	root      string
	world     string
	user, app string

	timeout     time.Duration
	perServer   time.Duration
	concurrency int
	session     bool

	retries          int
	retryBackoff     time.Duration
	retryBudget      int
	hedgeAfter       time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
}

// newFlagSet declares every flame flag on a fresh FlagSet bound to a fresh
// options value.
func newFlagSet(name string) (*flag.FlagSet, *options) {
	o := &options{}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.StringVar(&o.root, "root", "127.0.0.1:5300", "spatial DNS root server address")
	fs.StringVar(&o.world, "world", "", "world map provider URL (for geocode)")
	fs.StringVar(&o.user, "user", "", "identity asserted as X-Flame-User")
	fs.StringVar(&o.app, "app", "", "application asserted as X-Flame-App")
	fs.DurationVar(&o.timeout, "timeout", 30*time.Second, "overall deadline for the command (0 = none)")
	fs.DurationVar(&o.perServer, "per-server-timeout", 5*time.Second, "deadline per federation member, spanning its retries and hedges (0 = none)")
	fs.IntVar(&o.concurrency, "concurrency", 0, "max concurrent server calls (0 = default, 1 = sequential)")
	fs.BoolVar(&o.session, "session", false, "session consistency: carry high-water marks across this command's reads so a lagging replica is failed over instead of serving stale state")
	fs.IntVar(&o.retries, "retries", 0, "max attempts per server call; 5xx/timeouts/transport errors are retried with jittered backoff (0 or 1 = no retries)")
	fs.DurationVar(&o.retryBackoff, "retry-backoff", 10*time.Millisecond, "base backoff before the first retry (doubles per attempt)")
	fs.IntVar(&o.retryBudget, "retry-budget", 0, "max total retries per command across all federation members (0 = unlimited)")
	fs.DurationVar(&o.hedgeAfter, "hedge-after", 0, "race a second attempt against a server that has not answered after this long; adapts to the server's tracked p95 once warmed (0 = off)")
	fs.IntVar(&o.breakerThreshold, "breaker-threshold", 0, "consecutive failures before a member's circuit breaker opens and it is skipped without HTTP (0 = off)")
	fs.DurationVar(&o.breakerCooldown, "breaker-cooldown", 5*time.Second, "how long an open breaker waits before a half-open probe re-admits the member")
	return fs, o
}

// newClient builds the configured OpenFLAME client.
func (o *options) newClient() *client.Client {
	resolver := dns.NewResolver(dns.UDPExchanger{}, []dns.RootHint{{Name: "root.", Addr: o.root}})
	disc := discovery.NewClient(resolver, discovery.DefaultSuffix)
	disc.MaxConcurrency = o.concurrency
	c := client.New(disc, http.DefaultClient)
	c.User, c.App, c.WorldURL = o.user, o.app, o.world
	c.MaxConcurrency = o.concurrency
	c.PerServerTimeout = o.perServer
	p := resilience.Policy{
		Retry: resilience.RetryPolicy{
			MaxAttempts: o.retries,
			BaseBackoff: o.retryBackoff,
			Budget:      o.retryBudget,
		},
		HedgeAfter:       o.hedgeAfter,
		BreakerThreshold: o.breakerThreshold,
		BreakerCooldown:  o.breakerCooldown,
	}
	if p.Enabled() {
		c.Resilience = resilience.NewTracker(p)
	}
	return c
}

// callOpts translates the flags into per-call v2 options.
func (o *options) callOpts() []client.CallOption {
	var opts []client.CallOption
	if o.session {
		opts = append(opts, client.WithConsistency(client.ConsistencySession))
	}
	return opts
}

func main() {
	fs, o := newFlagSet("flame")
	fs.Usage = func() { usage(fs) }
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}

	args := fs.Args()
	if len(args) == 0 {
		usage(fs)
		os.Exit(2)
	}
	// Ctrl-C cancels every in-flight discovery and server call.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// watch is open-ended by design: the default 30s deadline would sever a
	// healthy stream, so it only applies when the operator set it themselves.
	if args[0] == "watch" && !flagWasSet(fs, "timeout") {
		o.timeout = 0
	}
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	c := o.newClient()

	switch args[0] {
	case "discover":
		ll := parseLatLng(fs, args, 1)
		anns := c.DiscoverV2(ctx, ll)
		if len(anns) == 0 {
			fmt.Println("no map servers found")
			return
		}
		for _, a := range anns {
			fmt.Printf("%-24s level=%-2d %s services=%v\n", a.Name, a.Level, a.URL, a.Services)
		}
	case "search":
		ll := parseLatLng(fs, args, 1)
		query := strings.Join(args[3:], " ")
		for i, r := range c.SearchV2(ctx, query, ll, 10, o.callOpts()...) {
			fmt.Printf("%2d. %-32s %6.0fm score=%.2f via %s\n",
				i+1, r.Name, r.DistanceMeters, r.Score, r.Source)
		}
	case "watch":
		ll := parseLatLng(fs, args, 1)
		query := strings.Join(args[3:], " ")
		w, err := c.WatchV2(ctx, query, ll, 10, o.callOpts()...)
		if err != nil {
			log.Fatalf("watch: %v", err)
		}
		defer w.Stop()
		for ev := range w.Events() {
			if ev.Init {
				fmt.Printf("=== %s: %d result(s)\n", ev.Server, len(ev.Results))
				for i, r := range ev.Results {
					fmt.Printf("%2d. %-32s %6.0fm score=%.2f\n", i+1, r.Name, r.DistanceMeters, r.Score)
				}
				continue
			}
			for _, r := range ev.Updated {
				fmt.Printf(" + %-32s %6.0fm score=%.2f via %s\n", r.Name, r.DistanceMeters, r.Score, ev.Server)
			}
			for _, id := range ev.Removed {
				fmt.Printf(" - node %d via %s\n", id, ev.Server)
			}
		}
	case "geocode":
		address := strings.Join(args[1:], " ")
		r, err := c.GeocodeV2(ctx, address, o.callOpts()...)
		if err != nil {
			log.Fatalf("geocode: %v", err)
		}
		fmt.Printf("%s at %s (score %.2f)\n", r.Name, r.Position, r.Score)
	case "route":
		from := parseLatLng(fs, args, 1)
		to := parseLatLng(fs, args, 3)
		route, err := c.RouteV2(ctx, from, to, o.callOpts()...)
		if err != nil {
			log.Fatalf("route: %v", err)
		}
		fmt.Printf("route: %.0fs, %.0fm across %d server(s)\n",
			route.CostSeconds, route.LengthMeters, route.ServersUsed)
		for _, leg := range route.Legs {
			fmt.Printf("  leg via %-24s %.0fs, %d points\n", leg.Server, leg.CostSeconds, len(leg.Points))
		}
	case "tile":
		ll := parseLatLng(fs, args, 1)
		z := mustInt(fs, args, 3)
		out := mustArg(fs, args, 4)
		anns := c.DiscoverV2(ctx, ll)
		if len(anns) == 0 {
			log.Fatal("no map servers found")
		}
		coord := tiles.FromLatLng(ll, z)
		png, err := c.TilePNGV2(ctx, anns[0].URL, coord.Z, coord.X, coord.Y)
		if err != nil {
			log.Fatalf("tile: %v", err)
		}
		if err := os.WriteFile(out, png, 0o644); err != nil {
			log.Fatalf("write: %v", err)
		}
		fmt.Printf("wrote %s (%d bytes, tile %s from %s)\n", out, len(png), coord, anns[0].Name)
	default:
		usage(fs)
		os.Exit(2)
	}
}

func usage(fs *flag.FlagSet) {
	fmt.Fprintln(os.Stderr, "usage: flame [flags] discover|search|watch|geocode|route|tile ...")
	fs.PrintDefaults()
}

// flagWasSet reports whether the named flag appeared on the command line
// (as opposed to holding its default).
func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func mustArg(fs *flag.FlagSet, args []string, i int) string {
	if i >= len(args) {
		usage(fs)
		os.Exit(2)
	}
	return args[i]
}

func mustInt(fs *flag.FlagSet, args []string, i int) int {
	v, err := strconv.Atoi(mustArg(fs, args, i))
	if err != nil {
		usage(fs)
		os.Exit(2)
	}
	return v
}

func parseLatLng(fs *flag.FlagSet, args []string, i int) geo.LatLng {
	lat, err1 := strconv.ParseFloat(mustArg(fs, args, i), 64)
	lng, err2 := strconv.ParseFloat(mustArg(fs, args, i+1), 64)
	if err1 != nil || err2 != nil {
		usage(fs)
		os.Exit(2)
	}
	return geo.LatLng{Lat: lat, Lng: lng}
}
