package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// op is a request type of the load generator.
type op int

const (
	opStream  op = iota // PUT /v1/traces:stream of a PT capture (chunked)
	opUpload            // POST /v1/traces of a PT capture (buffered)
	opAnalyze           // POST /v1/traces/{id}/analyze
	opDiff              // POST /v1/diff
	opFetch             // GET /v1/traces/{id}/raw
)

// metricOp names the op in metric names: both upload paths are
// "upload", and an analyze answered from the result cache is "cached".
func (q *request) metricOp() string {
	switch q.op {
	case opStream, opUpload:
		return "upload"
	case opAnalyze:
		if q.hit {
			return "cached"
		}
		return "analyze"
	case opDiff:
		return "diff"
	default:
		return "fetch"
	}
}

// metricOps names every per-op population q counts in: its metricOp,
// and "cached" too for a diff answered from the result cache.
func (q *request) metricOps() []string {
	if q.op == opDiff && q.hit {
		return []string{"diff", "cached"}
	}
	return []string{q.metricOp()}
}

// analysisSets is the analyze menu; index 0, the default suite, is also
// what both sides of a diff run.
var analysisSets = [][]string{
	nil,
	{"functions", "mrc"},
	{"zoom", "interval-tree"},
	{"lines", "heatmap"},
}

// request is one issued request and what came back.
type request struct {
	op      op
	client  int
	seq     int // per client
	block   int // schedule block
	vantage int // index of the memgazed the request went to

	capture int // uploads: corpus index; reads: corpus index of the trace
	variant int // uploads: body variant (see capture.body)
	traceB  int // diffs: corpus index of side b
	set     int // analyze: index into analysisSets

	start   time.Duration // since the run's origin
	latency time.Duration
	bytes   int64 // upload body bytes

	status int
	err    string
	hit    bool     // X-Memgazed-Cache: hit
	id     string   // uploads: returned id
	exist  bool     // uploads: returned existed
	sum    [32]byte // reads: SHA-256 of the response body
}

func (q *request) ok() bool { return q.err == "" && q.status >= 200 && q.status < 300 }

// key identifies an analyze or diff answer that must stay
// byte-identical for the whole run.
func (q *request) key() string {
	if q.op == opDiff {
		return fmt.Sprintf("diff:%d:%d", q.capture, q.traceB)
	}
	return fmt.Sprintf("analyze:%d:%d", q.capture, q.set)
}

// chunkedReader hides the body's length from net/http so the upload
// goes out with chunked transfer encoding, as memgaze upload -stream
// sends it.
type chunkedReader struct{ io.Reader }

// loadgen drives one workload's closed loop.
type loadgen struct {
	wl       *workloadDef
	seed     uint64
	corpus   []*capture
	ids      []string // corpus ids on the servers (reads)
	daemons  []*daemon
	sched    *schedule
	variants atomic.Int64 // next fresh upload variant
	origin   time.Time
	clients  int
}

// run starts the clients, stops issuing at the first schedule block
// boundary after the deadline (see schedule.next), and returns
// every request in issue order per client, plus the wall time from the
// first request to the last answer.
func (g *loadgen) run(d time.Duration) ([]*request, time.Duration) {
	g.sched = newSchedule(g.seed, g.corpus)
	g.origin = time.Now()
	deadline := g.origin.Add(d)
	per := make([][]*request, g.clients)
	var wg sync.WaitGroup
	for ci := 0; ci < g.clients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[ci] = g.client(ci, deadline)
		}()
	}
	wg.Wait()
	wall := time.Since(g.origin)
	g.sched.marks = append(g.sched.marks, g.mark())
	var all []*request
	for _, p := range per {
		all = append(all, p...)
	}
	return all, wall
}

// schedule is the run's seeded request sequence. Clients take the next
// request from it in turn, so for a given seed any prefix of the run
// holds the same requests whatever the timing. The sequence is made of
// blocks, each holding the workload's mix exactly (op shares, Zipf
// popularity over a seeded ranking of the corpus, every capture once
// per pass) in a seeded order;
// a run ends at the first block boundary after its deadline, so runs
// of different seeds measure the same mix and differ in order, inputs
// and popularity rankings only.
type schedule struct {
	mu     sync.Mutex
	rng    *rand.Rand
	n      int        // corpus size
	order  []int      // upload order: a seeded permutation of the corpus
	rank   []int      // this block's popularity: rank r (0 = most read) is corpus index rank[r]
	mirror []int      // corpus index of the k-th smallest capture -> of the k-th largest, and back
	pos    int        // uploads scheduled so far
	sets   []int      // per corpus index: next analysis set, mod len(analysisSets)
	block  []*request // the current block's remaining requests
	nblk   int        // blocks started
	marks  []mark     // taken as each block starts, and once after the run
}

// mark is memgazed's CPU time and the host's CPU counters at a block
// boundary; the per-block figures it gives are diagnostics only.
type mark struct {
	cpu          time.Duration
	steal, total uint64
}

func (g *loadgen) mark() mark {
	m := mark{}
	for _, d := range g.daemons {
		c, _ := d.cpuTime()
		m.cpu += c
	}
	m.steal, m.total = cpuSteal()
	return m
}

func newSchedule(seed uint64, corpus []*capture) *schedule {
	n := len(corpus)
	s := &schedule{rng: rand.New(rand.NewPCG(seed, 0x5eed)), n: n, mirror: make([]int, n)}
	for i := 0; i < n; i++ {
		s.order = append(s.order, i)
		s.sets = append(s.sets, i)
	}
	bySize := slices.Clone(s.order)
	slices.SortStableFunc(bySize, func(a, b int) int { return corpus[a].bytes - corpus[b].bytes })
	for k, ci := range bySize {
		s.mirror[ci] = bySize[n-1-k]
	}
	return s
}

// next fills q with the next request, or reports false once the run is
// over: past its deadline (late) at a block boundary.
func (s *schedule) next(g *loadgen, q *request, late bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.block) == 0 {
		if late {
			return false
		}
		// A fresh ranking every other block, and in the blocks between
		// its mirror image by size: where one block's most read
		// captures are the largest, the next block's are the smallest,
		// so a run's cost does not hang on which few captures its
		// rankings happened to put on top.
		s.marks = append(s.marks, g.mark())
		if s.nblk%2 == 0 {
			s.rank = s.rng.Perm(s.n)
		} else {
			for r, ci := range s.rank {
				s.rank[r] = s.mirror[ci]
			}
		}
		s.block = g.wl.block(s)
		s.nblk++
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	t := s.block[0]
	s.block = s.block[1:]
	q.op, q.capture, q.traceB, q.set = t.op, t.capture, t.traceB, t.set
	q.block = s.nblk - 1
	return true
}

// nextCapture walks the corpus in a seeded order, reshuffled every
// pass, so every capture is uploaded equally often.
func (s *schedule) nextCapture() int {
	if s.pos%s.n == 0 {
		s.rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
	}
	s.pos++
	return s.order[(s.pos-1)%s.n]
}

// zipfRanks returns k corpus indexes whose counts follow a Zipf law of
// exponent zipfS over the seeded popularity ranking, rounded by
// largest remainder so they sum to k exactly.
func (s *schedule) zipfRanks(k int) []int {
	w := make([]float64, s.n)
	var total float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -zipfS)
		total += w[i]
	}
	counts := make([]int, s.n)
	rem := make([]int, s.n)
	left := k
	for i := range w {
		exact := float64(k) * w[i] / total
		counts[i] = int(exact)
		left -= counts[i]
		rem[i] = i
		w[i] = exact - float64(counts[i])
	}
	sort.SliceStable(rem, func(a, b int) bool { return w[rem[a]] > w[rem[b]] })
	for _, i := range rem[:left] {
		counts[i]++
	}
	var out []int
	for r, c := range counts {
		for ; c > 0; c-- {
			out = append(out, s.rank[r])
		}
	}
	return out
}

// reads returns k read requests of op with Zipf-distributed traces;
// each trace's reads cycle through the analysis sets.
func (s *schedule) reads(k int, o op) []*request {
	var out []*request
	for _, ci := range s.zipfRanks(k) {
		out = append(out, &request{op: o, capture: ci, set: s.sets[ci] % len(analysisSets)})
		s.sets[ci]++
	}
	return out
}

func (g *loadgen) client(ci int, deadline time.Time) []*request {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 120 * time.Second}
	var out []*request
	var body bytes.Buffer
	for seq := 0; ; seq++ {
		q := &request{client: ci, seq: seq, vantage: (ci + seq) % len(g.daemons)}
		if !g.sched.next(g, q, !time.Now().Before(deadline)) {
			return out
		}
		g.do(hc, q, &body)
		out = append(out, q)
	}
}

// do issues q and records its answer. Upload bodies are encoded
// before the clock starts; the latency runs from sending the request
// to reading the last byte of the answer.
func (g *loadgen) do(hc *http.Client, q *request, body *bytes.Buffer) {
	base := g.daemons[q.vantage].url()
	var req *http.Request
	var err error
	switch q.op {
	case opStream, opUpload:
		q.variant = int(g.variants.Add(1))
		if err = g.corpus[q.capture].body(q.variant, body); err != nil {
			break
		}
		q.bytes = int64(body.Len())
		if q.op == opStream {
			req, err = http.NewRequest(http.MethodPut, base+"/v1/traces:stream", chunkedReader{bytes.NewReader(body.Bytes())})
		} else {
			req, err = http.NewRequest(http.MethodPost, base+"/v1/traces", bytes.NewReader(body.Bytes()))
		}
		if req != nil {
			req.Header.Set("Content-Type", "application/x-memgaze-pt")
		}
	case opAnalyze:
		var rb []byte
		if set := analysisSets[q.set]; set != nil {
			rb, _ = json.Marshal(map[string][]string{"analyses": set})
		}
		req, err = http.NewRequest(http.MethodPost, base+"/v1/traces/"+g.ids[q.capture]+"/analyze", bytes.NewReader(rb))
	case opDiff:
		rb, _ := json.Marshal(map[string]string{"a": g.ids[q.capture], "b": g.ids[q.traceB]})
		req, err = http.NewRequest(http.MethodPost, base+"/v1/diff", bytes.NewReader(rb))
	case opFetch:
		req, err = http.NewRequest(http.MethodGet, base+"/v1/traces/"+g.ids[q.capture]+"/raw", nil)
	}
	if err != nil {
		q.err = err.Error()
		return
	}

	start := time.Now()
	q.start = start.Sub(g.origin)
	resp, err := hc.Do(req)
	var rb []byte
	if err == nil {
		rb, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	q.latency = time.Since(start)
	if err != nil {
		q.err = err.Error()
		return
	}
	q.status = resp.StatusCode
	if !q.ok() {
		q.err = strings.TrimSpace(string(rb))
		return
	}
	switch q.op {
	case opStream, opUpload:
		var info struct {
			ID      string `json:"id"`
			Existed bool   `json:"existed"`
		}
		if err := json.Unmarshal(rb, &info); err != nil {
			q.err = "decoding upload answer: " + err.Error()
			return
		}
		q.id, q.exist = info.ID, info.Existed
	default:
		q.sum = sha256.Sum256(rb)
		q.hit = resp.Header.Get("X-Memgazed-Cache") == "hit"
	}
}

// upload sends variant k of a corpus capture with a buffered POST and
// returns the stored id (set-up preloads; not timed).
func upload(base string, c *capture, k int) (string, error) {
	var body bytes.Buffer
	if err := c.body(k, &body); err != nil {
		return "", err
	}
	resp, err := http.Post(base+"/v1/traces", "application/x-memgaze-pt", &body)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("preload %s: %s: %s", c.name, resp.Status, b)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &info); err != nil {
		return "", err
	}
	return info.ID, nil
}

func hexSum(s [32]byte) string { return hex.EncodeToString(s[:]) }
