package server

import (
	"context"
	"fmt"
	"sync"
)

// flightCall is one in-flight computation of a flightGroup: a value for
// each key it was started for.
type flightCall struct {
	done chan struct{} // closed when vals/err are final
	vals map[string]fragment
	err  error
}

// flightGroup coalesces duplicate in-flight work per key — a
// stdlib-only singleflight over sets of keys, in front of the result
// cache. Keys are result-cache keys (one analysis fragment, or one
// diff), so a request asking for several fragments joins the ones
// already being computed and leads one computation of the rest.
// Unlike x/sync/singleflight, the leader's work runs detached from any
// one request: a waiter whose context expires gets its own context
// error while the computation keeps running for the others (and for
// the result cache).
type flightGroup struct {
	cache *resultCache // read under mu: lock order mu, then cache.mu
	mu    sync.Mutex
	calls map[string]*flightCall

	// hookJoined, when non-nil, runs once for each Do call that joined
	// an execution, after its keys are attached and before it waits
	// (tests use it to know every duplicate has joined).
	hookJoined func()
}

func newFlightGroup(cache *resultCache) *flightGroup {
	return &flightGroup{cache: cache, calls: make(map[string]*flightCall)}
}

// Do fills every nil vals[i] with the value for keys[i]. A key some
// earlier call is computing is joined. Any other key is first looked
// up in the result cache again, under the group lock — a leader stores
// its values in the cache before it leaves the group, so a value
// finished since the caller's own lookup is found here rather than
// recomputed — and the rest are led: fn(led) runs once, in its own
// goroutine, and must return a value for each led key, which Do
// caches. fn must bound its own execution time (the server derives its
// context from the server lifetime plus the request timeout, not from
// any single request); ctx only governs this caller's wait. joined
// reports whether this call attached to another caller's execution
// (the coalescing the /metrics singleflight counter observes).
func (g *flightGroup) Do(ctx context.Context, keys []string, vals []fragment,
	fn func(led []string) (map[string]fragment, error)) (joined bool, err error) {
	waits := make([]*flightCall, len(keys))
	var led []string
	var lead *flightCall
	g.mu.Lock()
	for i, key := range keys {
		if vals[i] != nil {
			continue
		}
		if c, ok := g.calls[key]; ok {
			waits[i], joined = c, true
			continue
		}
		if v, ok := g.cache.Get(key); ok {
			vals[i] = v
			continue
		}
		if lead == nil {
			lead = &flightCall{done: make(chan struct{})}
		}
		g.calls[key] = lead
		waits[i] = lead
		led = append(led, key)
	}
	g.mu.Unlock()

	if lead != nil {
		go func() {
			lead.vals, lead.err = fn(led)
			for key, v := range lead.vals {
				g.cache.Put(key, v)
			}
			g.mu.Lock()
			for _, key := range led {
				delete(g.calls, key)
			}
			g.mu.Unlock()
			close(lead.done)
		}()
	}
	if joined && g.hookJoined != nil {
		g.hookJoined()
	}

	for i, c := range waits {
		if c == nil {
			continue
		}
		select {
		case <-c.done:
		case <-ctx.Done():
			return joined, ctx.Err()
		}
		if c.err != nil {
			return joined, c.err
		}
		v, ok := c.vals[keys[i]]
		if !ok {
			return joined, fmt.Errorf("flight for %s finished without its value", keys[i])
		}
		vals[i] = v
	}
	return joined, nil
}
