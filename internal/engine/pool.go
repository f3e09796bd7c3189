package engine

import (
	"context"

	"github.com/memgaze/memgaze-go/internal/pool"
)

// RunPool executes tasks on a bounded worker pool. The first task error
// cancels the rest; the pool always waits for every worker to exit
// before returning, so callers never leak goroutines. Tasks queued
// after a failure are drained without running.
//
// It is the shared concurrency primitive of the analysis engine and the
// trace-build pipeline (internal/pt); workers <= 0 selects GOMAXPROCS.
// The implementation lives in internal/pool.
func RunPool(ctx context.Context, workers int, tasks []func(context.Context) error) error {
	return pool.Run(ctx, workers, tasks)
}
