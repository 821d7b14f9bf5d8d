// Package runner provides the bounded-parallelism fan-out used by the
// experiment sweeps. The paper's headline artifacts — Figure 6's 19 kernels
// × 2 GPUs, the design-choice ablations, the DVFS sweep — are embarrassingly
// parallel: every (configuration, kernel) simulation is independent. The
// runner executes such jobs across a GOMAXPROCS-sized worker pool while
// keeping results (and the reported error) deterministic: results are
// returned in index order, and the error of the lowest-index failing job
// wins regardless of completion order.
//
// Jobs must not share mutable state. In this codebase that means each job
// builds its own simulator (core.New), virtual card (hw.NewCard) and
// benchmark instance; configurations returned by config presets are fresh
// per call and safe to use within one job.
package runner

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is what a job function's panic becomes: the pool recovers it
// on the worker goroutine (where it would otherwise kill the whole
// process — no caller can recover a panic on another goroutine) and
// reports it through the normal error path, stack attached. Long-lived
// callers (the sweep service's job workers) thus survive a panicking
// workload builder or scenario hook: the job fails, the process stays up.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job panicked: %v\n%s", e.Value, e.Stack)
}

// Map runs fn(0) … fn(n-1) on a worker pool sized min(n, GOMAXPROCS) and
// returns the results in index order. Every job runs to completion even if
// another job fails; if any jobs failed, the error of the lowest-index
// failure is returned alongside the full result slice. A panicking job is
// contained to that job: it yields a *PanicError instead of unwinding the
// pool.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return MapN(0, n, fn)
}

// MapN is Map with an explicit worker count. workers <= 0 selects
// min(n, GOMAXPROCS).
func MapN[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	results := make([]T, n)
	errs := make([]error, n)
	// Panic containment applies on the inline path too, so a job's failure
	// mode does not depend on GOMAXPROCS.
	call := func(i int) (out T, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		return fn(i)
	}

	if workers == 1 {
		// Degenerate pool: run inline, sparing the goroutine machinery (and
		// keeping single-CPU traces identical to the serial code).
		for i := 0; i < n; i++ {
			results[i], errs[i] = call(i)
		}
		return results, firstError(errs)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = call(i)
			}
		}()
	}
	wg.Wait()
	return results, firstError(errs)
}

// ForEach is Map for jobs with no result value.
func ForEach(n int, fn func(i int) error) error {
	_, err := Map(n, func(i int) (struct{}, error) { return struct{}{}, fn(i) })
	return err
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Flight deduplicates concurrent calls by key ("single-flight"): the first
// caller of a key runs fn, every caller that arrives while that call is in
// flight blocks and receives the same result. The simulation-result cache
// fronts the timing simulator with one, so parallel sweep jobs wanting the
// same content-addressed key simulate it exactly once. The zero value is
// ready to use.
type Flight[K comparable, V any] struct {
	mu       sync.Mutex
	inflight map[K]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do runs fn once per concurrently-requested key and returns its result.
// shared reports whether the result came from another caller's execution —
// callers that need fn's side effects locally must replay them when shared
// is true. Results are not memoized beyond the in-flight window: a new call
// after completion runs fn again (long-term memoization is the cache's job,
// not the flight group's).
func (f *Flight[K, V]) Do(key K, fn func() (V, error)) (val V, err error, shared bool) {
	f.mu.Lock()
	if f.inflight == nil {
		f.inflight = make(map[K]*flightCall[V])
	}
	if c, ok := f.inflight[key]; ok {
		f.mu.Unlock()
		<-c.done
		return c.val, c.err, true
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.inflight[key] = c
	f.mu.Unlock()

	// The cleanup must run even if fn panics: the key would otherwise stay
	// in the inflight map with its done channel never closed, deadlocking
	// every current and future caller of that key. A panicking fn still
	// unwinds the leader, but waiters receive an error instead of hanging.
	completed := false
	defer func() {
		if !completed {
			c.err = errFlightPanicked
		}
		f.mu.Lock()
		delete(f.inflight, key)
		f.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	completed = true
	return c.val, c.err, false
}

// errFlightPanicked is handed to waiters whose leader's fn panicked.
var errFlightPanicked = errors.New("runner: single-flight function panicked")

// ReserveWorkers does nothing: each timing simulation runs on its caller's
// goroutine, so there is no worker budget to claim. The name remains, with
// ReleaseWorkers, because the benchmark program in perfbench/ calls it;
// drop both together with those calls.
func ReserveWorkers(n int) {}

// ReleaseWorkers does nothing; see ReserveWorkers.
func ReleaseWorkers(n int) {}
