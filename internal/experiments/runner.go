package experiments

import (
	"runtime"
	"sync"
	"time"
)

// The parallel experiment engine. A full `-exp all` replay runs ~24
// independent figures, each of which builds its own sim.Clock, host
// and stores — an embarrassingly parallel workload that the original
// harness ran strictly sequentially. RunMany fans the figures out over
// a bounded worker pool and still emits results in input order, so the
// rendered output is byte-identical to a sequential run. The same pool
// primitive (runSeries) parallelizes *within* multi-series figures:
// fig09's five toolstacks, fig04's guest classes, fig13's migration
// drivers and so on each own an isolated timeline, so their sweeps run
// concurrently without perturbing a single virtual-time result.

// runSeries executes jobs 0..n-1 on up to o.workers() goroutines and
// returns the lowest-indexed error (deterministic error reporting).
// With Parallel == 1 (or a single job) it degrades to a plain loop so
// sequential runs stay exactly sequential.
func (o Options) runSeries(n int, job func(i int) error) error {
	w := o.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunMany executes the given experiments on a bounded worker pool
// (Options.Parallel workers; 0 = GOMAXPROCS) and returns their results
// in input order. Per-figure wall time is recorded on each Result.
// Allocation counts are recorded on sequential runs only, where the
// process-wide counter is attributable to a single figure; parallel
// runs leave Result.Allocs at 0.
func RunMany(ids []string, o Options) ([]Result, error) {
	o = o.normalize()
	sequential := o.workers() == 1
	if !sequential && o.Profile.enabled() {
		// One profiling token: profiled figures take turns (CPU
		// profiling is process-global), unprofiled ones keep the pool
		// busy. See profile.go for the tradeoff.
		o.profGate = make(chan struct{}, 1)
	}
	out := make([]Result, len(ids))
	err := o.runSeries(len(ids), func(i int) error {
		var m0 runtime.MemStats
		if sequential {
			runtime.ReadMemStats(&m0)
		}
		start := time.Now()
		res, err := runProfiled(ids[i], o)
		if err != nil {
			return err
		}
		if res.Wall == 0 {
			// Profiled figures time themselves (captureProfiles), so
			// gate waits and profile parsing don't count as figure time.
			res.Wall = time.Since(start)
		}
		if sequential {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			res.Allocs = m1.Mallocs - m0.Mallocs
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunAll runs every registered experiment in registry (sorted) order.
func RunAll(o Options) ([]Result, error) {
	return RunMany(IDs(), o)
}
