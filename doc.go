// Package openflame is a from-scratch reproduction of "Uniting the World by
// Dividing it: Federated Maps to Enable Spatial Applications" (HotOS 2025):
// a federated spatial naming system in which independent map servers own
// maps of physical regions, a DNS-based discovery layer maps locations to
// servers, and a client stitches location-based services — geocoding,
// search, routing, localization, and tiles — across the federation.
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory); runnable entry points are under cmd/ and examples/ (quickstart
// and the §2 grocery walk-through, run by `make examples`); the
// experiment harness reproducing the paper's architecture comparison is in
// bench_test.go, indexed by experiment ID in EXPERIMENTS.md.
//
// The client surface (internal/client) is one ctx-first method per service
// — SearchV2, GeocodeV2, ReverseGeocodeV2, LocalizeV2, RouteV2, DiscoverV2,
// InfoV2, TilePNGV2, and the standing-query WatchV2 — taking variadic
// per-call options (WithMaxServers, WithTimeout, WithConsistency,
// WithSession; DESIGN.md §6 and §11).
package openflame
