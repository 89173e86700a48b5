package core

import (
	"runtime"
	"sync"
)

// Partial is the running aggregate of a population — (N, Σ w_i,
// Σ default_i, Σ Violation_i). The paper's population quantities (Defs. 2
// and 5, Eq. 16) are sums of independent per-provider terms, so an edit
// moves the aggregate by one provider's delta instead of a recompute.
//
// The integer fields are exact under any edit order. The float total is
// order-sensitive at the last ulp: it accumulates in edit order, and the
// byte-exact total comes from re-summing rows in sorted provider order
// (AssemblePopulation).
type Partial struct {
	N               int
	ViolatedCount   int     // Σ_i w_i over the subset
	DefaultCount    int     // Σ_i default_i over the subset
	TotalViolations float64 // Σ_i Violation_i over the subset (order-sensitive)
}

// Add folds one provider's totals into the partial.
func (p *Partial) Add(t Totals) {
	p.N++
	if t.Violated {
		p.ViolatedCount++
	}
	if t.Defaults {
		p.DefaultCount++
	}
	p.TotalViolations += t.Violation
}

// Sub removes one provider's contribution. The integer fields stay exact;
// the float total accumulates rounding in edit order, as documented on
// Partial.
func (p *Partial) Sub(t Totals) {
	p.N--
	if t.Violated {
		p.ViolatedCount--
	}
	if t.Defaults {
		p.DefaultCount--
	}
	p.TotalViolations -= t.Violation
}

// PW is Def. 2 over the subset: Σ w_i / N (0 for an empty subset).
func (p Partial) PW() float64 {
	if p.N == 0 {
		return 0
	}
	return float64(p.ViolatedCount) / float64(p.N)
}

// PDefault is Def. 5 over the subset: Σ default_i / N (0 for an empty
// subset).
func (p Partial) PDefault() float64 {
	if p.N == 0 {
		return 0
	}
	return float64(p.DefaultCount) / float64(p.N)
}

// FanOut cuts [0, n) into contiguous ranges, one per schedulable CPU
// (GOMAXPROCS), and runs f(lo, hi) on each concurrently, returning when
// every range is done. With one CPU or n <= 1 it is the plain call f(0, n)
// on the caller's goroutine. Workers write results to index-aligned slots
// and the caller reduces them serially in index order, so a result never
// depends on the width. n <= 1 returns before reading GOMAXPROCS, which
// takes the scheduler's lock: a one-item upsert calls FanOut under the
// store's exclusive lock.
func FanOut(n int, f func(lo, hi int)) {
	if n <= 1 {
		f(0, n)
		return
	}
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(i*n/w, (i+1)*n/w)
	}
	wg.Wait()
}
