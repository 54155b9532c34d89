package exp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the number of experiment cells run concurrently by the
// harness. Each cell owns a private sim.Engine (and thus its own RNG), so
// cells are independent by construction; the harness only parallelizes
// across cells, never within one. The default uses every available CPU.
// Set to 1 to force sequential execution — results are byte-identical
// either way, because cells write their results by index.
var Workers = runtime.GOMAXPROCS(0)

// Shards is the engine shard count experiment cells request for their app
// runs (see apps.ResolveShards: 0/1 sequential, negative auto). Sharded
// engines advance through optimistic commit spans (see sim.Engine).
// Results are bit-identical at any value. When both the harness and the engines
// parallelize, EffectiveWorkers keeps cells × shards within the host
// budget.
var Shards = 1

// Cores is the simulated per-node core count of the kv service
// (kv.Config.Cores), the only app that declares a compatibility matrix;
// the other apps always run the paper's single-active dispatch. 1 keeps
// kv single-active too; higher values enable multiactive dispatch.
// Simulated cores cost no host CPUs — they only change how virtual time
// overlaps — so Cores does not enter EffectiveWorkers. Results are
// bit-identical at any value of Shards for a fixed Cores.
var Cores = 1

// EffectiveWorkers is the harness width actually used: Workers, shrunk so
// that concurrent cells × shard runners per cell never exceeds
// GOMAXPROCS. Without the cap, every cell would spin Shards goroutines of
// its own and the host would thrash on oversubscription.
func EffectiveWorkers() int {
	w := Workers
	if w < 1 {
		w = 1
	}
	s := Shards
	if s < 0 {
		s = runtime.NumCPU()
	}
	if s > 1 {
		if budget := runtime.GOMAXPROCS(0) / s; budget < w {
			w = budget
		}
		if w < 1 {
			w = 1
		}
	}
	return w
}

// forEach runs fn(0) .. fn(n-1) across min(EffectiveWorkers, n)
// goroutines. fn must
// deposit its result at index i of a pre-sized slice so that merge order
// is the loop order, independent of goroutine scheduling. All cells run
// even after a failure; the returned error is the lowest-index one, again
// so the outcome does not depend on scheduling.
func forEach(n int, fn func(i int) error) error {
	w := EffectiveWorkers()
	if w > n {
		w = n
	}
	if w <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	var (
		next   int64 = -1
		wg     sync.WaitGroup
		mu     sync.Mutex
		errIdx = n
		first  error
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
