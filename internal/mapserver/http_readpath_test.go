package mapserver

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"openflame/internal/osm"
	"openflame/internal/tiles"
)

func postRaw(t *testing.T, url string, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHTTPGenerationHeaderAndETag304(t *testing.T) {
	srv := cachedCityServer(t, 64)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"query":"3rd Street","limit":2}`
	res := postRaw(t, ts.URL+"/geocode", body, nil)
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	if got := res.Header.Get(HeaderGeneration); got != strconv.FormatUint(srv.Generation(), 10) {
		t.Fatalf("generation header %q, server at %d", got, srv.Generation())
	}
	etag := res.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on read response")
	}
	payload, _ := io.ReadAll(res.Body)

	// Revalidation at the same generation: 304, no body.
	res2 := postRaw(t, ts.URL+"/geocode", body, map[string]string{"If-None-Match": etag})
	defer res2.Body.Close()
	if res2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status %d, want 304", res2.StatusCode)
	}
	if b, _ := io.ReadAll(res2.Body); len(b) != 0 {
		t.Fatalf("304 carried a body: %q", b)
	}

	// A write bumps the generation: the old tag no longer validates and
	// the full (identical here) response is returned with a new tag.
	var anyNode *osm.Node
	srv.cfg.Map.Nodes(func(n *osm.Node) bool { anyNode = n; return false })
	if !srv.ApplyInventoryUpdate(anyNode.ID, anyNode.Tags.Clone()) {
		t.Fatal("update failed")
	}
	res3 := postRaw(t, ts.URL+"/geocode", body, map[string]string{"If-None-Match": etag})
	defer res3.Body.Close()
	if res3.StatusCode != http.StatusOK {
		t.Fatalf("post-write revalidation status %d, want 200", res3.StatusCode)
	}
	if got := res3.Header.Get("ETag"); got == etag {
		t.Fatal("ETag unchanged across a write")
	}
	if b, _ := io.ReadAll(res3.Body); !bytes.Equal(b, payload) {
		t.Fatalf("same query at new generation changed unexpectedly:\n%s\n%s", payload, b)
	}
}

func TestHTTPTileETagAndRerenderAfterUpdate(t *testing.T) {
	srv, bundle := storeServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	shelf := bundle.Map.FindNodes(func(n *osm.Node) bool {
		return n.Tags.Has(osm.TagProduct)
	})[0]
	coord := tiles.FromLatLng(bundle.Map.NodePosition(shelf), 20)
	url := fmt.Sprintf("%s/tiles/%d/%d/%d.png", ts.URL, coord.Z, coord.X, coord.Y)

	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := io.ReadAll(res.Body)
	res.Body.Close()
	etag := res.Header.Get("ETag")
	if res.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("status %d etag %q", res.StatusCode, etag)
	}

	// Conditional refetch: identical generation, no re-render, no bytes.
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", etag)
	res2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res2.Body)
	res2.Body.Close()
	if res2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional tile status %d, want 304", res2.StatusCode)
	}

	// Update the named shelf, refetch: the old tag no longer validates
	// and the tile was re-rendered, not served stale.
	if !srv.ApplyInventoryUpdate(shelf.ID, osm.Tags{osm.TagIndoor: "yes"}) {
		t.Fatal("update failed")
	}
	req3, _ := http.NewRequest(http.MethodGet, url, nil)
	req3.Header.Set("If-None-Match", etag)
	res3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := io.ReadAll(res3.Body)
	res3.Body.Close()
	if res3.StatusCode != http.StatusOK {
		t.Fatalf("post-update tile status %d, want 200", res3.StatusCode)
	}
	if bytes.Equal(before, after) {
		t.Fatal("stale tile bytes served after the shelf update")
	}
}

// TestHTTPMalformedBodyNeverRevalidates pins the decode-before-ETag rule:
// a request that cannot decode earns a 400 without an ETag, and resending
// it with a stale If-None-Match still earns the 400, never a 304.
func TestHTTPMalformedBodyNeverRevalidates(t *testing.T) {
	srv := cachedCityServer(t, 16)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res := postRaw(t, ts.URL+"/geocode", `{"query":12}`, nil)
	defer res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status %d, want 400", res.StatusCode)
	}
	if etag := res.Header.Get("ETag"); etag != "" {
		t.Fatalf("400 carried ETag %q", etag)
	}
	// Steal a valid tag from a good request and present it with the bad
	// body: the decode failure must win.
	good := postRaw(t, ts.URL+"/geocode", `{"query":"3rd Street"}`, nil)
	io.Copy(io.Discard, good.Body)
	good.Body.Close()
	res2 := postRaw(t, ts.URL+"/geocode", `{"query":12}`,
		map[string]string{"If-None-Match": good.Header.Get("ETag")})
	defer res2.Body.Close()
	if res2.StatusCode != http.StatusBadRequest {
		t.Fatalf("conditional malformed body status %d, want 400", res2.StatusCode)
	}
}

// TestHTTPTileETagSurvivesUnrelatedWrite pins content-keyed tile
// revalidation: a write that invalidates other tiles must not break an
// untouched tile's 304s.
func TestHTTPTileETagSurvivesUnrelatedWrite(t *testing.T) {
	srv, bundle := storeServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	shelves := bundle.Map.FindNodes(func(n *osm.Node) bool {
		return n.Tags.Has(osm.TagProduct)
	})
	shelf := shelves[0]
	// A tile far from the store: rendered (empty), cached, unaffected by
	// the shelf update.
	farURL := fmt.Sprintf("%s/tiles/18/0/0.png", ts.URL)
	res, err := http.Get(farURL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	etag := res.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no tile ETag")
	}
	if !srv.ApplyInventoryUpdate(shelf.ID, osm.Tags{osm.TagIndoor: "yes"}) {
		t.Fatal("update failed")
	}
	req, _ := http.NewRequest(http.MethodGet, farURL, nil)
	req.Header.Set("If-None-Match", etag)
	res2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res2.Body)
	res2.Body.Close()
	if res2.StatusCode != http.StatusNotModified {
		t.Fatalf("unrelated write broke the far tile's revalidation: status %d", res2.StatusCode)
	}
}
