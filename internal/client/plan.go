package client

import (
	"context"
	"fmt"
	"reflect"

	"openflame/internal/discovery"
	"openflame/internal/fanout"
)

// planGroup is one unit of a fan-out plan: a set of replica announcements
// that serve identical content for the same region. The client contacts ONE
// member per group, failing over to siblings on error — N replicas of a hot
// region cost one request and gain N× capacity, instead of costing N
// requests whose answers dedup to one.
type planGroup struct {
	// Key identifies the group: the announcements' replica-set id, or a
	// synthetic singleton key for servers announcing no set.
	Key string
	// Replicas holds the group's members in deterministic discovery order.
	Replicas []discovery.Announcement
}

// planAnnouncements groups announcements into a fan-out plan: members of
// the same replica set collapse into one group; servers without a set are
// singleton groups of their own. Groups appear in first-appearance order of
// the input (which discovery already makes deterministic), so with no
// replica sets in play the plan is exactly the pre-plan fan-out list —
// request-for-request identical. Duplicate (name, URL) entries are dropped.
func planAnnouncements(anns []discovery.Announcement) []planGroup {
	type nameURL struct{ name, url string }
	seen := make(map[nameURL]bool, len(anns))
	index := make(map[string]int)
	var groups []planGroup
	for _, a := range anns {
		nu := nameURL{a.Name, a.URL}
		if seen[nu] {
			continue
		}
		seen[nu] = true
		key := a.ReplicaSet
		if key == "" {
			key = singletonKey(a.Name, a.URL)
		}
		if i, ok := index[key]; ok {
			groups[i].Replicas = append(groups[i].Replicas, a)
			continue
		}
		index[key] = len(groups)
		groups = append(groups, planGroup{Key: key, Replicas: []discovery.Announcement{a}})
	}
	return groups
}

// singletonKey is the group key of a server that announced no replica set
// (the NUL prefix cannot collide with an operator-chosen set id).
func singletonKey(name, url string) string {
	return "\x00" + name + "\x00" + url
}

// orderedReplicas returns the group's members in contact-preference order:
// members whose circuit breaker is open are excluded outright (they rejoin
// via half-open probes), the rest sort by tracked EWMA latency ascending —
// so steady-state traffic flows to the fastest healthy replica, and a
// replica with no samples yet (EWMA 0) is probed before slower known ones.
// The sort is stable, so ties (and the no-tracker case) preserve discovery
// order, keeping plans deterministic.
func (c *Client) orderedReplicas(g planGroup) []discovery.Announcement {
	out := make([]discovery.Announcement, 0, len(g.Replicas))
	for _, a := range g.Replicas {
		if c.available(a.URL) {
			out = append(out, a)
		}
	}
	t := c.Resilience
	if t == nil || len(out) < 2 {
		return out
	}
	// Insertion sort: replica sets are small and stability matters.
	lat := make(map[string]int64, len(out))
	for _, a := range out {
		lat[a.URL] = int64(t.Health(a.URL).EWMALatency)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && lat[out[j].URL] < lat[out[j-1].URL]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// errGroupExhausted reports a group whose every eligible replica failed.
type errGroupExhausted struct {
	key  string
	last error
}

func (e *errGroupExhausted) Error() string {
	if e.last == nil {
		return fmt.Sprintf("client: no eligible replica in group %q", e.key)
	}
	return fmt.Sprintf("client: all replicas of group %q failed: %v", e.key, e.last)
}

func (e *errGroupExhausted) Unwrap() error { return e.last }

// callGroup issues one logical request to a replica group: the preferred
// replica first, failing over to each sibling in order until one answers.
// Each attempt gets its own per-server timeout (a replica that burned its
// window must not leave the sibling with an expired context) and runs
// through the resilience layer like any other call. Sessioned calls carry
// the group's consistency mark, so a member lagging behind what this
// session has already observed refuses (wire.StatusStaleReplica) and the
// failover loop moves on to a sibling that can honor the mark. On success
// the answering replica is returned; resp holds its decoded response.
func (c *Client) callGroup(ctx context.Context, g planGroup, path string, req, resp interface{}) (discovery.Announcement, error) {
	var lastErr error
	first := true
	for _, a := range c.orderedReplicas(g) {
		if ctx.Err() != nil {
			return discovery.Announcement{}, ctx.Err()
		}
		if !first {
			// A failed attempt may have partially decoded into resp (a 200
			// with a corrupt body); zero it so the sibling's answer cannot
			// inherit fields the failure left behind.
			if v := reflect.ValueOf(resp); v.Kind() == reflect.Pointer && !v.IsNil() {
				v.Elem().Set(reflect.Zero(v.Elem().Type()))
			}
		}
		first = false
		actx, cancel := c.perServerCtx(ctx)
		err := c.callKeyed(actx, g.Key, a.URL, path, req, resp)
		cancel()
		if err == nil {
			return a, nil
		}
		lastErr = err
	}
	return discovery.Announcement{}, &errGroupExhausted{key: g.Key, last: lastErr}
}

// forEachGroup runs fn over the plan's groups on the client's bounded
// worker pool. Unlike forEachServer it does NOT wrap fn in a per-server
// timeout — fn is expected to call callGroup, which budgets each failover
// attempt separately.
func (c *Client) forEachGroup(ctx context.Context, n int, fn func(ctx context.Context, i int)) {
	ctx = c.withRetryBudget(ctx)
	fanout.ForEach(ctx, n, c.MaxConcurrency, fn)
}
