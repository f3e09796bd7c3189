package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// workloadDef is one named traffic mix against a memgazed deployment.
type workloadDef struct {
	name string
	why  string
	// replicas is the number of memgazed processes; more than one forms
	// a -peers fleet.
	replicas int
	// storeBudget is memgazed's -store-budget, the hot tier's bytes.
	storeBudget int64
	// flags are the memgazed flags besides -addr, -data-dir,
	// -store-budget and the fleet flags.
	flags []string
	// preload uploads the corpus during set-up; restart then restarts
	// memgazed so the run starts from recovered, cold storage.
	preload, restart bool
	// block returns the next block of the request schedule (unordered;
	// the schedule shuffles it).
	block func(s *schedule) []*request
}

// resultCacheBytes is memgazed's -result-cache where a workload
// analyzes. The corpus encodes to about 12 MB of traces and its analyze
// key space (20 traces × 4 analysis sets) to about 9 MB of reports, so
// the cache holds a third of the key space: hits and misses settle into
// a steady mix (about one answer in five a hit) instead of draining to
// all hits.
const (
	resultCacheBytes = 3 << 20 // 3 MiB
	// zipfS is the Zipf exponent of read popularity over a block's
	// ranking of the corpus. No access trace of analysis reports is at
	// hand; 0.8 is the upper end of the 0.64–0.83 that Breslau et al.
	// ("Web Caching and Zipf-like Distributions", INFOCOM 1999) measured
	// for requests to web proxy caches, the nearest published skew of
	// reads through a result cache. It is an assumption, not a
	// measurement of memgaze use.
	zipfS = 0.8
	// blockLen is the number of requests in a read schedule block: each
	// block holds the workload's mix exactly and draws a fresh
	// popularity ranking, so a run averages over many rankings.
	blockLen = 50
)

var workloads = []*workloadDef{
	{
		name:        "ingest",
		why:         "closed loop, nproc-1 clients (min 1); 1 memgazed, -data-dir, 4 MiB -store-budget; streamed PT uploads of fresh captures: pt decode, StreamAccum, hash, segment append; no engine",
		replicas:    1,
		storeBudget: 4 << 20,
		block: func(s *schedule) []*request {
			out := make([]*request, s.n) // one pass over the corpus
			for i := range out {
				out[i] = &request{op: opStream, capture: s.nextCapture()}
			}
			return out
		},
	},
	{
		name:        "analyze",
		why:         "closed loop, nproc-1 clients; 1 memgazed restarted on a corpus 3x its 4 MiB -store-budget, 3 MiB -result-cache; Zipf 0.8 (assumed) analyzes, 1 in 10 diffs: engine, cold reads, result cache",
		replicas:    1,
		storeBudget: 4 << 20,
		flags:       []string{"-result-cache", strconv.Itoa(resultCacheBytes)},
		preload:     true,
		restart:     true,
		block: func(s *schedule) []*request {
			out := s.reads(blockLen, opAnalyze)
			// Every tenth request is a diff of two corpus traces, both
			// chosen by popularity.
			const diffs = blockLen / 10
			s.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			for i := 0; i < diffs; i++ {
				q := out[i]
				q.op, q.set, q.traceB = opDiff, 0, q.capture
				for j := i + diffs; q.traceB == q.capture; j++ {
					q.traceB = out[j%len(out)].capture
				}
			}
			return out
		},
	},
	{
		name:        "fleet",
		why:         "closed loop, nproc-1 clients round-robin over 3 memgazed, -replication 2, -repair-interval -1s; 30% buffered uploads, 50% Zipf 0.8 (assumed) analyzes, 20% raw fetches: routing, proxy, fan-out",
		replicas:    3,
		storeBudget: 8 << 20,
		flags: []string{
			"-result-cache", strconv.Itoa(resultCacheBytes),
			"-replication", "2",
			"-repair-interval", "-1s",
		},
		preload: true,
		block: func(s *schedule) []*request {
			out := append(s.reads(blockLen/2, opAnalyze), s.reads(blockLen/5, opFetch)...)
			for i := 0; i < blockLen*3/10; i++ {
				out = append(out, &request{op: opUpload, capture: s.nextCapture()})
			}
			return out
		},
	},
}

func lookupWorkload(name string) (*workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// deployment is a running set of memgazed processes for one workload.
type deployment struct {
	daemons []*daemon
	dirs    []string
	ids     []string // corpus ids, by corpus index (preloaded workloads)
}

// replicaArgs returns replica i's full memgazed flags.
func (wl *workloadDef) replicaArgs(dir string, addrs []string, i int) []string {
	args := append([]string{"-data-dir", dir, "-store-budget", strconv.FormatInt(wl.storeBudget, 10)}, wl.flags...)
	if len(addrs) > 1 {
		args = append(args, "-peers", strings.Join(addrs, ","), "-advertise", addrs[i])
	}
	return args
}

// deploy starts the workload's memgazed processes under work, preloads
// the corpus if the workload wants one, and restarts if it asks to.
func (wl *workloadDef) deploy(bin, work string, corpus []*capture) (*deployment, error) {
	dep := &deployment{}
	addrs := make([]string, wl.replicas)
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return nil, err
		}
		addrs[i] = a
	}
	for i := range addrs {
		dir := filepath.Join(work, fmt.Sprintf("data%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			dep.stop()
			return nil, err
		}
		dep.dirs = append(dep.dirs, dir)
		d, err := startDaemon(bin, addrs[i], filepath.Join(work, fmt.Sprintf("memgazed%d.log", i)), wl.replicaArgs(dir, addrs, i))
		if err != nil {
			dep.stop()
			return nil, err
		}
		dep.daemons = append(dep.daemons, d)
	}
	if wl.preload {
		for ci, c := range corpus {
			id, err := upload(dep.daemons[ci%len(dep.daemons)].url(), c, 0)
			if err != nil {
				dep.stop()
				return nil, err
			}
			dep.ids = append(dep.ids, id)
		}
	}
	if wl.restart {
		for _, d := range dep.daemons {
			if err := d.restart(); err != nil {
				dep.stop()
				return nil, err
			}
		}
	}
	return dep, nil
}

// cpuTime is the CPU time of every running daemon, summed.
func (dep *deployment) cpuTime() (time.Duration, error) {
	var sum time.Duration
	for _, d := range dep.daemons {
		c, err := d.cpuTime()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// stop drains every daemon and waits for each to exit.
func (dep *deployment) stop() error {
	var first error
	for _, d := range dep.daemons {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
