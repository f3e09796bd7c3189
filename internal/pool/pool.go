// Package pool provides the bounded worker pool behind engine.RunPool,
// which the analyzer engine and the trace-build pipeline share.
package pool

import (
	"context"
	"runtime"
	"sync"
)

// Run executes tasks on a bounded worker pool. The first task error
// cancels the rest; the pool always waits for every worker to exit
// before returning, so callers never leak goroutines. Tasks queued
// after a failure are drained without running.
//
// workers <= 0 selects GOMAXPROCS.
func Run(ctx context.Context, workers int, tasks []func(context.Context) error) error {
	if len(tasks) == 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	tctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	ch := make(chan func(context.Context) error)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for task := range ch {
				if tctx.Err() != nil {
					continue
				}
				if err := task(tctx); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					cancel()
				}
			}
		}()
	}
	for _, task := range tasks {
		ch <- task
	}
	close(ch)
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
