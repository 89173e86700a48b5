// Package fanoutdata is the fanout checker fixture: loop-variable capture
// in goroutines, unsynchronized shared writes in concurrent closures,
// fire-and-forget goroutines, and the sanctioned counterparts (explicit
// parameters, per-index slots, mutexes, channel joins).
package fanoutdata

import "sync"

// FanOut mimics the repo's fork-join combinator; any callee named FanOut
// is treated as running its function-literal arguments concurrently.
func FanOut(n int, f func(lo, hi int)) {
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(w*n/workers, (w+1)*n/workers)
	}
	wg.Wait()
}

func work() int { return 1 }

func use(int) {}

// Captures reads the loop variable inside the goroutine body instead of
// passing it as an argument.
func Captures(items []int) {
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			use(items[i]) // want "captures loop variable i"
		}()
	}
	wg.Wait()
}

// Parametrized passes the loop variable explicitly: no finding.
func Parametrized(items []int) {
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			use(items[j])
		}(i)
	}
	wg.Wait()
}

// SharedAppend grows a shared slice from concurrent workers.
func SharedAppend(keys []string) []int {
	var out []int
	FanOut(len(keys), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out = append(out, len(keys[i])) // want "writes shared variable out"
		}
	})
	return out
}

// Indexed writes one slot per index of the worker's range: the sanctioned
// pattern, no finding.
func Indexed(keys []string) []int {
	out := make([]int, len(keys))
	FanOut(len(keys), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = len(keys[i])
		}
	})
	return out
}

// Locked synchronizes the shared accumulator with a mutex: no finding.
func Locked(keys []string) int {
	var mu sync.Mutex
	total := 0
	FanOut(len(keys), func(lo, hi int) {
		mu.Lock()
		for i := lo; i < hi; i++ {
			total += len(keys[i])
		}
		mu.Unlock()
	})
	return total
}

// FireAndForget spawns a goroutine nothing ever joins.
func FireAndForget() {
	go func() { // want "fire-and-forget goroutine"
		use(work())
	}()
}

// Joined signals completion over a channel: no finding.
func Joined() int {
	done := make(chan int, 1)
	go func() { done <- work() }()
	return <-done
}

// SuppressedLeak demonstrates lint:ignore on a deliberate detached
// goroutine.
func SuppressedLeak() {
	//lint:ignore fanout fixture: detached best-effort worker, loss is acceptable
	go func() {
		use(work())
	}()
}
