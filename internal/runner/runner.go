// Package runner fans independent simulation runs out across a pool of
// worker goroutines while keeping results exactly as deterministic as a
// sequential loop.
//
// Every experiment sweep in this repository (workload pair × mode × LLC
// size × defense) is embarrassingly parallel: each run constructs its own
// Machine — kernel, hierarchy, physical memory — so runs share no mutable
// state and the per-run results are bit-identical regardless of scheduling.
// The pool only changes *when* runs execute, never *what* they compute;
// results are delivered in index order, so downstream CSV/markdown output
// is byte-identical between -j1 and -jN.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options controls a pool invocation.
type Options struct {
	// Workers is the number of concurrent workers. Values <= 0 (and 1)
	// select runtime.GOMAXPROCS(0) and sequential execution respectively.
	Workers int
	// Progress, when non-nil, is called after each job finishes with the
	// number of completed jobs and the total. Calls are serialized but may
	// arrive in any completion order; done is monotonically increasing.
	Progress func(done, total int)
}

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs fn(i) for every i in [0, n) across the pool and returns the
// results in index order. On failure the pool stops handing out new jobs,
// waits for in-flight jobs, and returns the error of the lowest-indexed
// failed job (with a single worker that is always the first error, i.e.
// sequential semantics). The partial results are discarded on error.
func Map[T any](n int, opts Options, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), n, opts, fn)
}

// MapCtx is Map bounded by a context: no new job starts once ctx is
// cancelled, in-flight jobs are waited for, and the cancellation surfaces as
// ctx.Err() unless an earlier-indexed job already failed on its own.
func MapCtx[T any](ctx context.Context, n int, opts Options, fn func(i int) (T, error)) ([]T, error) {
	return MapWorkersCtx(ctx, n, opts, func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (T, error) { return fn(i) })
}

// MapWorkers is Map with per-worker state: newState runs once in each worker
// goroutine (and once total on the sequential path) and its value is handed
// to every fn call that worker makes. Sweeps use it to give each worker a
// machine.Pool, so consecutive jobs on one worker reuse a Reset machine
// instead of rebuilding; because a reset machine is indistinguishable from a
// fresh one, results remain bit-identical to Map at any worker count.
func MapWorkers[S, T any](n int, opts Options, newState func() S, fn func(s S, i int) (T, error)) ([]T, error) {
	return MapWorkersCtx(context.Background(), n, opts, newState, fn)
}

// MapWorkersCtx is MapWorkers bounded by a context. Cancellation is checked
// before each job is handed out, so a cancelled sweep stops at the next run
// boundary; runs that are themselves ctx-aware (the harness passes the same
// context into the kernel) stop mid-run too. Results are all-or-nothing,
// exactly like an fn error.
func MapWorkersCtx[S, T any](ctx context.Context, n int, opts Options, newState func() S, fn func(s S, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]T, n)
	workers := opts.workers(n)

	if workers == 1 {
		// Sequential fast path: no goroutines, exactly today's behavior.
		s := newState()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := fn(s, i)
			if err != nil {
				return nil, err
			}
			results[i] = r
			if opts.Progress != nil {
				opts.Progress(i+1, n)
			}
		}
		return results, nil
	}

	var (
		next   atomic.Int64 // next job index to hand out
		failed atomic.Bool  // set on first error: stop handing out jobs
		done   int          // completed jobs (success only), for Progress

		mu       sync.Mutex // guards firstErr/firstIdx, done and Progress calls
		firstErr error
		firstIdx int
		wg       sync.WaitGroup
	)

	record := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
		failed.Store(true)
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newState()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					record(i, err)
					return
				}
				r, err := fn(s, i)
				if err != nil {
					record(i, err)
					return
				}
				results[i] = r
				if opts.Progress != nil {
					// Count inside the lock so calls see done in order.
					mu.Lock()
					done++
					opts.Progress(done, n)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		return nil, firstErr
	}
	return results, nil
}

// Do is Map for jobs with no result value.
func Do(n int, opts Options, fn func(i int) error) error {
	_, err := Map(n, opts, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}
