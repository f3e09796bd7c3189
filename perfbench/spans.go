package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one replayed request
// share req; parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its handle.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// record adds a finished span of duration d ending now — for layers
// that report a duration after the fact (engine.WithObserver).
func (t *tracer) record(name string, d time.Duration, parent, req int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now - d.Nanoseconds(), End: now, Parent: parent, Req: req})
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, req int, fn func()) {
	i := t.begin(name, parent, req)
	fn()
	t.end(i)
}

// selfTimes returns each span's duration minus the part of it covered
// by its children (overlapping children count once).
func (t *tracer) selfTimes() []time.Duration {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, k := range kids[i] {
			c := t.spans[k]
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, reach := int64(0), s.Start
		for _, v := range ivs {
			lo := max(v.lo, reach)
			if v.hi > lo {
				covered += v.hi - lo
				reach = v.hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// perRequest sums self times (from selfTimes) by span name within each
// request id: name → req → total.
func (t *tracer) perRequest(self []time.Duration) map[string]map[int]time.Duration {
	out := map[string]map[int]time.Duration{}
	for i, s := range t.spans {
		m := out[s.Name]
		if m == nil {
			m = map[int]time.Duration{}
			out[s.Name] = m
		}
		m[s.Req] += self[i]
	}
	return out
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCost measures what recording one span costs the replay: the
// mean of n begin/end pairs on a scratch tracer.
func spanCost(n int) time.Duration {
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("probe", -1, i))
	}
	return time.Since(start) / time.Duration(n)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func since(t time.Time) float64 { return time.Since(t).Seconds() }
