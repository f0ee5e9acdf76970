package mapserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"openflame/internal/osm"
	"openflame/internal/wire"
)

// TestReadsPinOneView is the read-exactness hammer. One writer renames a node
// through ApplyInventoryUpdate, putting the write number in the name,
// while readers hit /search and /geocode over HTTP, half of them
// sessioned. Write n lands at generation gen0+n and change-log position
// seq0+n, so the name an answer returns says which view it was computed
// from — and every 200's X-Flame-Generation and every session mark must
// name exactly that view.
func TestReadsPinOneView(t *testing.T) {
	city := cityMap()
	srv, err := New(Config{Name: "city", Map: city, QueryCacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var target *osm.Node
	city.Nodes(func(n *osm.Node) bool {
		if n.Tags.Get(osm.TagName) != "" {
			target = n
			return false
		}
		return true
	})
	rename := func(n int) {
		tags := target.Tags.Clone()
		tags[osm.TagName] = fmt.Sprintf("Hammerzz %d", n)
		if !srv.ApplyInventoryUpdate(target.ID, tags) {
			t.Errorf("write %d refused", n)
		}
	}
	gen0, seq0 := srv.Generation(), srv.ChangeSeq()
	rename(1) // every read below finds the node

	var (
		mu   sync.Mutex
		errs []string
	)
	fail := func(format string, args ...interface{}) {
		mu.Lock()
		defer mu.Unlock()
		if len(errs) < 10 {
			errs = append(errs, fmt.Sprintf(format, args...))
		}
	}
	writeOf := func(name string) (uint64, bool) {
		n, err := strconv.ParseUint(strings.TrimPrefix(name, "Hammerzz "), 10, 64)
		return n, err == nil && strings.HasPrefix(name, "Hammerzz ")
	}

	const readers, rounds = 4, 60
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sessioned := r%2 == 1
			var marks []wire.SessionMark
			body := func(query string) []byte {
				req := wire.SearchRequest{Query: query, Limit: 1}
				if sessioned {
					req.SetConsistency(&wire.ReadConsistency{Marks: marks})
				}
				b, _ := json.Marshal(req)
				return b
			}
			// check verifies one answer: the write its name carries, the
			// generation it was stamped with, and its session mark.
			check := func(what, name string, gen uint64, mark *wire.SessionMark) {
				n, ok := writeOf(name)
				if !ok {
					fail("%s: answer names %q", what, name)
					return
				}
				if gen != gen0+n {
					fail("%s: write %d (gen %d) stamped generation %d", what, n, gen0+n, gen)
				}
				if sessioned {
					if mark == nil || mark.Gen != gen0+n || mark.Seq != seq0+n {
						fail("%s: write %d (gen %d seq %d) carries mark %+v", what, n, gen0+n, seq0+n, mark)
						return
					}
					marks = []wire.SessionMark{*mark}
				}
			}
			post := func(path string, b []byte, v interface{}) (uint64, bool) {
				res, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
				if err != nil {
					fail("%s: %v", path, err)
					return 0, false
				}
				defer res.Body.Close()
				if res.StatusCode != http.StatusOK {
					fail("%s: status %d", path, res.StatusCode)
					return 0, false
				}
				if err := json.NewDecoder(res.Body).Decode(v); err != nil {
					fail("%s: %v", path, err)
					return 0, false
				}
				gen, err := strconv.ParseUint(res.Header.Get(HeaderGeneration), 10, 64)
				return gen, err == nil
			}
			for i := 0; i < rounds; i++ {
				switch (i + r) % 2 {
				case 0:
					var resp wire.SearchResponse
					if gen, ok := post("/search", body("hammerzz"), &resp); ok && len(resp.Results) == 1 {
						check("search", resp.Results[0].Name, gen, resp.Session)
					}
				case 1:
					var resp wire.GeocodeResponse
					if gen, ok := post("/geocode", body("hammerzz"), &resp); ok && len(resp.Results) == 1 {
						check("geocode", resp.Results[0].Name, gen, resp.Session)
					}
				}
			}
		}(r)
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	n := 2
	for ; ; n++ {
		select {
		case <-done:
			t.Logf("%d writes under %d readers", n-1, readers)
			if n < 10 {
				t.Fatalf("readers finished after only %d writes", n)
			}
			for _, e := range errs {
				t.Error(e)
			}
			return
		default:
		}
		rename(n)
		time.Sleep(100 * time.Microsecond)
	}
}
