package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"

	"github.com/memgaze/memgaze-go/internal/diff"
	"github.com/memgaze/memgaze-go/internal/engine"
)

// check is one output check's tally.
type check struct {
	name    string
	checked int
	failed  int
	first   string // first failure, for the log
}

func (c *check) fail(format string, args ...any) {
	c.failed++
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
}

// engineSample is how many analyze keys (plus one diff key) the
// in-process engine check recomputes.
const engineSample = 3

// runChecks verifies memgazed's answers after the timed window:
//   - every upload id (set-up preloads included) equals the in-process
//     build + trace hash of the same body, and no fresh upload was
//     reported as already stored;
//   - every analyze/diff key answered byte-identical JSON all run long;
//   - for a seeded sample of keys, that JSON equals an in-process
//     engine run (and diff) marshalled the same way;
//   - every raw download hashes to its id.
func runChecks(seed uint64, corpus []*capture, ids []string, reqs []*request) []*check {
	ups := &check{name: "upload_ids"}
	stable := &check{name: "stable_answers"}
	ref := &check{name: "engine_reference"}
	raw := &check{name: "raw_hashes"}

	// Upload ids, rebuilt on a small worker pool.
	type job struct {
		c       *capture
		variant int
		id      string
		fresh   bool // must not have deduplicated
		existed bool
	}
	var jobs []job
	for i, id := range ids {
		jobs = append(jobs, job{c: corpus[i], id: id})
	}
	for _, q := range reqs {
		if q.ok() && (q.op == opStream || q.op == opUpload) {
			jobs = append(jobs, job{corpus[q.capture], q.variant, q.id, true, q.exist})
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan job)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				tr, _, err := j.c.build(j.variant)
				var id string
				if err == nil {
					id, _ = tr.HashAndSize()
				}
				mu.Lock()
				ups.checked++
				switch {
				case err != nil:
					ups.fail("%s variant %d: in-process build: %v", j.c.name, j.variant, err)
				case id != j.id:
					ups.fail("%s variant %d: memgazed id %s, in-process %s", j.c.name, j.variant, j.id, id)
				case j.fresh && j.existed:
					ups.fail("%s variant %d: fresh upload answered existed", j.c.name, j.variant)
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()

	// Byte-identical answers per key; raw downloads against ids.
	first := map[string]*request{}
	for _, q := range reqs {
		if !q.ok() {
			continue
		}
		switch q.op {
		case opAnalyze, opDiff:
			stable.checked++
			if f, ok := first[q.key()]; !ok {
				first[q.key()] = q
			} else if f.sum != q.sum {
				stable.fail("%s answered differently at %v and %v", q.key(), f.start, q.start)
			}
		case opFetch:
			raw.checked++
			if got := hexSum(q.sum); got != ids[q.capture] {
				raw.fail("raw %s hashed to %s", ids[q.capture], got)
			}
		}
	}

	// In-process reference for a seeded sample of keys.
	var analyzeKeys, diffKeys []string
	for k, q := range first {
		if q.op == opDiff {
			diffKeys = append(diffKeys, k)
		} else {
			analyzeKeys = append(analyzeKeys, k)
		}
	}
	slices.Sort(analyzeKeys)
	slices.Sort(diffKeys)
	rng := rand.New(rand.NewPCG(seed, 0xc4ec))
	rng.Shuffle(len(analyzeKeys), func(i, j int) { analyzeKeys[i], analyzeKeys[j] = analyzeKeys[j], analyzeKeys[i] })
	rng.Shuffle(len(diffKeys), func(i, j int) { diffKeys[i], diffKeys[j] = diffKeys[j], diffKeys[i] })
	sample := analyzeKeys[:min(engineSample, len(analyzeKeys))]
	sample = append(sample, diffKeys[:min(1, len(diffKeys))]...)
	for _, k := range sample {
		q := first[k]
		ref.checked++
		want, err := referenceAnswer(corpus, q)
		switch {
		case err != nil:
			ref.fail("%s: in-process reference: %v", k, err)
		case want != q.sum:
			ref.fail("%s: memgazed JSON differs from in-process engine run", k)
		}
	}
	return []*check{ups, stable, ref, raw}
}

// referenceAnswer recomputes an analyze or diff answer in-process, the
// way memgazed computes it: engine run, json.Marshal; a diff decodes
// both marshalled default-suite reports and diffs them.
func referenceAnswer(corpus []*capture, q *request) ([32]byte, error) {
	report := func(ci, set int) ([]byte, error) {
		tr, _, err := corpus[ci].build(0)
		if err != nil {
			return nil, err
		}
		rep, err := engine.New(tr, analysisOptions(set)...).Run(context.Background())
		if err != nil {
			return nil, err
		}
		return json.Marshal(rep)
	}
	if q.op == opAnalyze {
		b, err := report(q.capture, q.set)
		return sha256.Sum256(b), err
	}
	var reps [2]engine.Report
	for i, ci := range []int{q.capture, q.traceB} {
		b, err := report(ci, 0)
		if err != nil {
			return [32]byte{}, err
		}
		if err := json.Unmarshal(b, &reps[i]); err != nil {
			return [32]byte{}, err
		}
	}
	b, err := json.Marshal(diff.Diff(&reps[0], &reps[1], diff.WithTopK(0)))
	return sha256.Sum256(b), err
}

// analysisOptions is the engine selection memgazed derives from an
// analyze body naming analysisSets[set] (none for the default suite).
func analysisOptions(set int) []engine.Option {
	if analysisSets[set] == nil {
		return nil
	}
	var kinds []engine.Analysis
	for _, n := range analysisSets[set] {
		a, _ := engine.ParseAnalysis(n)
		kinds = append(kinds, a)
	}
	return []engine.Option{engine.WithAnalyses(kinds...)}
}
