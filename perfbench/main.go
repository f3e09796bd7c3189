// Command perfbench is the repository's end-to-end benchmark. It starts
// the shipped memgazed binary as child processes on loopback, drives a
// named workload from a closed loop of clients, checks every answer
// against in-process computations, and prints each metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// same run is followed by an in-process replay of its request sequence
// that times each layer's public functions, and the metrics are the
// per-layer ones. perfbench/run.sh builds memgazed and this command
// from the checkout and runs it:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets up its deployment; setup_s is
// the median, and the last set-up serves the timed run.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run executes one benchmark invocation, writing its report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: ingest, analyze or fleet")
	seed := fs.Uint64("seed", 1, "seed for inputs and request order")
	seconds := fs.Int("seconds", 10, "length of the timed run in seconds")
	traced := fs.Int("trace", 0, "1 = replay the run in-process and report per-layer metrics")
	bin := fs.String("memgazed", "", "memgazed binary to benchmark")
	workBase := fs.String("work", ".bench_build/work", "directory for data directories, logs and span dumps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *bin == "" {
		return fmt.Errorf("-memgazed is required")
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be positive")
	}
	work := filepath.Join(*workBase, fmt.Sprintf("%s-%d", wl.name, os.Getpid()))
	defer os.RemoveAll(work)

	// Closed loop, one connection per client: a client per CPU but one,
	// which stays free for memgazed's garbage collector and background
	// work and for the load generator, so the run measures memgazed
	// rather than an oversubscribed CPU.
	clients := max(runtime.NumCPU()-1, 1)
	reps := setupReps
	if *traced == 1 {
		reps = 1 // setup_s is not reported; the traced run times set-up by layer
	}

	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", wl.name, *seed, *seconds, *traced)
	fmt.Fprintf(w, "# config go=%s GOMAXPROCS=%d nproc=%d clients=%d loop=closed setup_reps=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), clients, reps)
	fmt.Fprintf(w, "# why %s\n", wl.why)

	// Set-up, repeated; the last deployment stays up for the run.
	var setups, setupWalls []float64
	var corpus []*capture
	var dep *deployment
	for rep := 0; rep < reps; rep++ {
		if dep != nil {
			if err := dep.stop(); err != nil {
				return err
			}
			os.RemoveAll(work)
		}
		t0, c0 := time.Now(), ownCPUTime()
		if corpus, err = genCorpus(*seed, nil); err != nil {
			return err
		}
		if dep, err = wl.deploy(*bin, work, corpus); err != nil {
			return err
		}
		// The live daemons started in this set-up, so all their CPU
		// time is its; daemons it restarted have been reaped into
		// ownCPUTime.
		live, err := dep.cpuTime()
		if err != nil {
			dep.stop()
			return err
		}
		setups = append(setups, (ownCPUTime() - c0 + live).Seconds())
		setupWalls = append(setupWalls, since(t0))
	}
	defer dep.stop()
	for i, d := range dep.daemons {
		fmt.Fprintf(w, "# memgazed[%d] flags: %s\n", i, strings.Join(d.args, " "))
	}
	var capBytes int
	for _, c := range corpus {
		capBytes += c.bytes
		fmt.Fprintf(w, "# capture %-18s bytes=%d windows=%d\n", c.name, c.bytes, c.windows)
	}
	fmt.Fprintf(w, "# corpus captures=%d bytes=%d\n", len(corpus), capBytes)

	g := &loadgen{
		wl: wl, seed: *seed, corpus: corpus, ids: dep.ids, daemons: dep.daemons,
		clients: clients,
	}
	steal0, total0 := cpuSteal()
	cpu0, err := dep.cpuTime()
	if err != nil {
		return err
	}
	reqs, wall := g.run(time.Duration(*seconds) * time.Second)
	cpu1, err := dep.cpuTime()
	if err != nil {
		return err
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		// CPU time the hypervisor gave to other guests: the host's own
		// contention, which moves every timing of the run.
		fmt.Fprintf(w, "# host steal=%.1f%% of CPU time during the run\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}

	var peak int64
	for _, d := range dep.daemons {
		rss, err := d.peakRSS()
		if err != nil {
			return err
		}
		peak = max(peak, rss)
	}
	var hop float64
	if *traced == 1 && len(dep.daemons) > 1 {
		if hop, err = probeProxyHop(dep, 40); err != nil {
			return err
		}
	}
	if err := dep.stop(); err != nil {
		return err
	}

	checks := runChecks(*seed, corpus, dep.ids, reqs)
	e2e := summarize(reqs, wall, setups, peak)
	e2e.setupWalls, e2e.serverCPU = setupWalls, cpu1-cpu0

	failedReqs := 0
	for _, q := range reqs {
		if !q.ok() {
			failedReqs++
			if failedReqs <= 3 {
				fmt.Fprintf(w, "# failed %s to memgazed[%d]: status %d: %s\n", q.metricOp(), q.vantage, q.status, q.err)
			}
		}
	}
	failed := failedReqs
	for _, c := range checks {
		fmt.Fprintf(w, "# check %-16s checked=%d failed=%d %s\n", c.name, c.checked, c.failed, c.first)
		failed += c.failed
	}
	res := result{Correct: failed == 0, Attempted: len(reqs), Failed: failed}
	if len(reqs) == 0 {
		res.Attempted, res.Correct = 1, false
	}
	e2e.print(w, float64(failed)/float64(res.Attempted))
	printBlocks(w, reqs, g.sched.marks)

	if *traced == 1 {
		rp := &replayer{
			log: w, wl: wl, seed: *seed, corpus: corpus, dep: dep, work: work, reqs: reqs, e2e: e2e, hop: hop,
			budget: time.Duration(*seconds) * time.Second,
		}
		layers, err := rp.run()
		if err != nil {
			return err
		}
		if err := rp.tr.writeJSONL(filepath.Join(*workBase, "spans-"+wl.name+".jsonl")); err != nil {
			return err
		}
		res.Metrics = layers
	} else {
		res.Metrics = e2e.metrics()
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "metric %s %.6g %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(out))
	if !res.Correct {
		return fmt.Errorf("%d failed requests or output checks", failed)
	}
	return nil
}

// failedLatency is the latency a failed request counts with: it misses
// every limit.
const failedLatency = time.Duration(math.MaxInt64)

// e2eStats is the end-to-end view of one run.
type e2eStats struct {
	setups     []float64 // CPU seconds per set-up
	setupWalls []float64 // wall-clock seconds per set-up
	wall       time.Duration
	serverCPU  time.Duration // memgazed CPU time over the timed run, all processes
	peakRSS    int64
	all        []time.Duration            // every attempt; failures as failedLatency
	ok         []time.Duration            // successful attempts
	byOp       map[string][]time.Duration // by metricOp, successes and failures
	upBytes    int64
	hits       int
	answered   int // analyze + diff answers (for the cache hit ratio)
}

func summarize(reqs []*request, wall time.Duration, setups []float64, peak int64) *e2eStats {
	s := &e2eStats{setups: setups, wall: wall, peakRSS: peak, byOp: map[string][]time.Duration{}}
	for _, q := range reqs {
		lat := q.latency
		if !q.ok() {
			lat = failedLatency
		} else {
			s.ok = append(s.ok, lat)
			if q.op == opStream || q.op == opUpload {
				s.upBytes += q.bytes
			}
			if q.op == opAnalyze || q.op == opDiff {
				s.answered++
				if q.hit {
					s.hits++
				}
			}
		}
		s.all = append(s.all, lat)
		for _, op := range q.metricOps() {
			s.byOp[op] = append(s.byOp[op], lat)
		}
	}
	return s
}

// printBlocks writes each schedule block's request count, mean
// latency, memgazed CPU time per request and host steal, to show
// warm-up and drift within a run.
func printBlocks(w io.Writer, reqs []*request, marks []mark) {
	var n []int
	var sum []time.Duration
	for _, q := range reqs {
		for len(n) <= q.block {
			n, sum = append(n, 0), append(sum, 0)
		}
		n[q.block]++
		sum[q.block] += q.latency
	}
	for b := range n {
		fmt.Fprintf(w, "# block %d requests=%d mean_ms=%.2f", b, n[b], ms(sum[b])/float64(max(n[b], 1)))
		if b+1 < len(marks) {
			m0, m1 := marks[b], marks[b+1]
			fmt.Fprintf(w, " cpu_ms_per_req=%.2f steal=%.1f%%", ms(m1.cpu-m0.cpu)/float64(max(n[b], 1)),
				100*float64(m1.steal-m0.steal)/float64(max(m1.total-m0.total, 1)))
		}
		fmt.Fprintln(w)
	}
}

// quantile is the nearest-rank q-quantile of ds (0 for an empty set).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// meanMS is the mean latency of the successful requests; tailMS is
// the mean of their slowest tenth.
func (s *e2eStats) meanMS() float64 { return ms(meanOf(s.ok)) }

func (s *e2eStats) tailMS() float64 {
	sorted := slices.Clone(s.ok)
	slices.Sort(sorted)
	return ms(meanOf(sorted[len(sorted)-len(sorted)/10:]))
}

func meanOf(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(max(len(ds), 1))
}

// cpuPerReqMS is memgazed's CPU time per successful request over the
// timed run, summed over every memgazed process.
func (s *e2eStats) cpuPerReqMS() float64 {
	return ms(s.serverCPU) / float64(max(len(s.ok), 1))
}

// metrics returns the end-to-end metrics BENCHMARK.json names. Every
// one is defined, and non-zero, on every workload. The timings among
// them are CPU time, which the kernel counts without the time the
// hypervisor gave the CPUs to other guests (steal). On a shared host
// steal runs from nothing to over a third of the CPU time for minutes
// at a stretch and stretches a run's wall-clock figures by up to 2.5x,
// so the wall-clock and per-op figures print() adds are not gated.
func (s *e2eStats) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":        {median(s.setups), "s"},
		"cpu_ms_per_req": {s.cpuPerReqMS(), "ms"},
		"peak_rss_mb":    {float64(s.peakRSS) / (1 << 20), "MB"},
	}
}

// print writes every end-to-end figure the workload exercises, per op,
// with units and sample counts.
func (s *e2eStats) print(w io.Writer, errorRate float64) {
	line := func(name string, v float64, unit string, n int) {
		fmt.Fprintf(w, "e2e %-16s %12.4f %-6s n=%d\n", name, v, unit, n)
	}
	line("setup_s", median(s.setups), "s", len(s.setups))
	line("setup_wall_s", median(s.setupWalls), "s", len(s.setupWalls))
	line("cpu_ms_per_req", s.cpuPerReqMS(), "ms", len(s.ok))
	for _, op := range []string{"upload", "analyze", "cached", "diff", "fetch"} {
		ds := s.byOp[op]
		if len(ds) == 0 {
			continue
		}
		line(op+"_p50_ms", ms(quantile(ds, 0.50)), "ms", len(ds))
		if op == "upload" || op == "analyze" {
			line(op+"_p99_ms", ms(quantile(ds, 0.99)), "ms", len(ds))
		}
	}
	if len(s.byOp["upload"]) > 0 {
		line("ingest_mb_s", float64(s.upBytes)/1e6/s.wall.Seconds(), "MB/s", len(s.byOp["upload"]))
	}
	if s.answered > 0 {
		line("cache_hit_ratio", float64(s.hits)/float64(s.answered), "ratio", s.answered)
	}
	line("throughput_rps", float64(len(s.ok))/s.wall.Seconds(), "req/s", len(s.all))
	line("error_rate", errorRate, "ratio", len(s.all))
	line("peak_rss_mb", float64(s.peakRSS)/(1<<20), "MB", 1)
	line("mean_ms", s.meanMS(), "ms", len(s.ok))
	line("tail_ms", s.tailMS(), "ms", len(s.ok)/10)
	line("p50_ms", ms(quantile(s.all, 0.50)), "ms", len(s.all))
	line("p90_ms", ms(quantile(s.all, 0.90)), "ms", len(s.all))
}

// ownCPUTime is the CPU time of this process and of the children it
// has reaped (stopped memgazed processes).
func ownCPUTime() time.Duration {
	var sum time.Duration
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if syscall.Getrusage(who, &ru) == nil {
			sum += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		}
	}
	return sum
}

// cpuSteal returns the steal and total CPU time counters of
// /proc/stat's cpu line, or zeros where there is none.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
