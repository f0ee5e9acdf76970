package wire

import (
	"encoding/json"
	"testing"

	"openflame/internal/geo"
	"openflame/internal/loc"
)

func TestAllServices(t *testing.T) {
	svcs := AllServices()
	if len(svcs) != 6 {
		t.Fatalf("services = %v", svcs)
	}
	seen := map[Service]bool{}
	for _, s := range svcs {
		if seen[s] {
			t.Fatalf("duplicate service %v", s)
		}
		seen[s] = true
	}
}

func TestJSONRoundTrips(t *testing.T) {
	near := geo.LatLng{Lat: 40.44, Lng: -79.99}
	msgs := []interface{}{
		&Info{Name: "x", Coverage: []string{"89f515"}, Services: AllServices(),
			Technologies: []loc.Technology{loc.TechWiFiRSSI}, FrameKind: "local",
			Portals: []Portal{{ID: "p", NodeID: 3, World: near}}},
		&SearchRequest{Query: "seaweed", Near: &near, Limit: 5},
		&RouteRequest{From: near, To: geo.Offset(near, 100, 0), FromNode: 7},
		&RouteMatrixRequest{FromNodes: []int64{1, 0}, FromPositions: []geo.LatLng{{}, near}},
		&LocalizeRequest{Cue: loc.Cue{Technology: loc.TechWiFiRSSI, RSSI: map[string]float64{"b": -60}}},
		&GeocodeRequest{Query: "411 Forbes"},
		&RGeocodeRequest{Position: near, MaxMeters: 50},
	}
	for i, m := range msgs {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("msg %d marshal: %v", i, err)
		}
		if len(b) < 2 {
			t.Fatalf("msg %d empty", i)
		}
		// Round trip into a fresh value of the same type.
		fresh := map[string]interface{}{}
		if err := json.Unmarshal(b, &fresh); err != nil {
			t.Fatalf("msg %d unmarshal: %v", i, err)
		}
	}
}

func TestRouteResponseOmitsEmptyPoints(t *testing.T) {
	b, err := json.Marshal(RouteResponse{Found: false})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) == "" {
		t.Fatal("empty marshal")
	}
	var resp RouteResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Found || resp.Points != nil {
		t.Fatalf("resp = %+v", resp)
	}
}
