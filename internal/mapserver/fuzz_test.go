package mapserver

import (
	"encoding/json"
	"net/http"
	"testing"

	"openflame/internal/geo"
	"openflame/internal/loc"
	"openflame/internal/wire"
)

// FuzzServiceDecode throws any bytes at any service name through the
// service table's lookup and decode — the only way a request body enters
// the server. It must never panic, and the status a request earns before
// compute is exactly one of 404 (no such read service), 400 (malformed
// body) or 200 (a typed request whose envelope can be taken). Seeds are the
// request shapes the HTTP tests post, plus malformed ones; they run as
// ordinary tests under `go test`.
func FuzzServiceDecode(f *testing.F) {
	near := geo.LatLng{Lat: 40.441, Lng: -79.9916}
	rc := &wire.ReadConsistency{Marks: []wire.SessionMark{{Origin: "city-0", Log: 7, Seq: 3}}}
	sessioned := wire.SearchRequest{Query: "milk", Near: &near, Limit: 5}
	sessioned.SetConsistency(rc)
	for svc, req := range map[wire.Service]interface{}{
		wire.SvcGeocode:     wire.GeocodeRequest{Query: "3rd Street", Limit: 2},
		wire.SvcRGeocode:    wire.RGeocodeRequest{Position: near, MaxMeters: 100},
		wire.SvcSearch:      sessioned,
		wire.SvcRoute:       wire.RouteRequest{From: near, To: near, Metric: wire.MetricDistance},
		wire.SvcRouteMatrix: wire.RouteMatrixRequest{FromNodes: []int64{1, 2}, ToPositions: []geo.LatLng{near}},
		wire.SvcLocalize:    wire.LocalizeRequest{Cue: loc.Cue{Technology: loc.TechFiducial}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(svc), body)
		f.Add(string(svc), body[:len(body)/2])
	}
	f.Add("search", []byte(`{"query":"x"} trailing`))
	f.Add("search", []byte(`{"limit":"five"}`))
	f.Add("route", []byte(`{"consistency":{"marks":[{"origin":1}]}}`))
	f.Add("tiles", []byte(`{}`))
	f.Add("watch", []byte(`{}`))
	f.Add("", []byte(nil))

	f.Fuzz(func(t *testing.T, name string, body []byte) {
		status := http.StatusOK
		svc := lookupService(wire.Service(name))
		if svc == nil {
			status = http.StatusNotFound
		} else if req, err := svc.decode(body); err != nil {
			status = http.StatusBadRequest
		} else {
			req.TakeConsistency()
			if req.TakeConsistency() != nil {
				t.Fatal("envelope survived being taken")
			}
		}
		known := false
		for _, s := range []wire.Service{wire.SvcGeocode, wire.SvcRGeocode, wire.SvcSearch,
			wire.SvcRoute, wire.SvcRouteMatrix, wire.SvcLocalize} {
			known = known || name == string(s)
		}
		if known == (status == http.StatusNotFound) {
			t.Fatalf("service %q: status %d", name, status)
		}
	})
}
