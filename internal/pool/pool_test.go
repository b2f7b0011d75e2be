package pool

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunCoversRange checks every index is visited exactly once, for shard
// counts straddling the inline and pooled paths.
func TestRunCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := New(workers)
		for _, n := range []int{0, 1, 5, 1000, 4096, 10001} {
			var hits = make([]int32, n)
			p.Run(n, 64, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
		p.Close()
	}
}

// TestRunGrain checks the shard count respects the minimum grain.
func TestRunGrain(t *testing.T) {
	p := New(8)
	defer p.Close()
	if got := p.Shards(100, 64); got != 1 {
		t.Fatalf("Shards(100, 64) = %d, want 1 (grain bound)", got)
	}
	if got := p.Shards(1<<20, 1024); got != 8 {
		t.Fatalf("Shards(1<<20, 1024) = %d, want 8 (worker bound)", got)
	}
	if got := p.Shards(3000, 1024); got != 2 {
		t.Fatalf("Shards(3000, 1024) = %d, want 2", got)
	}
}

// TestRunNFansOut checks every shard index runs exactly once.
func TestRunNFansOut(t *testing.T) {
	p := New(4)
	defer p.Close()
	var hits [16]int32
	p.RunN(len(hits), func(k int) { atomic.AddInt32(&hits[k], 1) })
	for k, h := range hits {
		if h != 1 {
			t.Fatalf("shard %d ran %d times", k, h)
		}
	}
}

// TestRunNWiderThanPool pins that fanning out past the pool's parallelism
// completes instead of deadlocking — a caller that partitions work itself
// may submit more shards than Workers, and a pool of 1 spawns no drainer
// goroutines at all, so RunN must fall back to inline execution there and
// queue the excess elsewhere.
func TestRunNWiderThanPool(t *testing.T) {
	for _, workers := range []int{1, 2} {
		p := New(workers)
		defer p.Close()
		var hits [64]int32 // far beyond the jobs buffer (8×workers)
		p.RunN(len(hits), func(k int) { atomic.AddInt32(&hits[k], 1) })
		for k, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: shard %d ran %d times", workers, k, h)
			}
		}
	}
}

// TestConcurrentRuns checks two goroutines can share one pool: Run from a
// second goroutine interleaves with a Share whose serial task shards into
// the same pool.
func TestConcurrentRuns(t *testing.T) {
	p := New(4)
	defer p.Close()
	const n = 1 << 16
	a := make([]int32, n)
	b := make([]int32, n)
	c := make([]int32, n)
	inc := func(v []int32) func(lo, hi int) {
		return func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v[i]++
			}
		}
	}
	for iter := 0; iter < 50; iter++ {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); p.Run(n, 1024, inc(c)) }()
		p.Share(func() { p.Run(n, 1024, inc(b)) }, n, 1024, inc(a))
		wg.Wait()
	}
	for i := 0; i < n; i++ {
		if a[i] != 50 || b[i] != 50 || c[i] != 50 {
			t.Fatalf("index %d: a=%d b=%d c=%d, want 50/50/50", i, a[i], b[i], c[i])
		}
	}
}

// TestShareCoversRange checks that Share visits every index of [0, n)
// exactly once and runs serial exactly once, on pools straddling the inline
// and claiming paths and on a closed pool. serial shards into the same pool
// through Run and RunN, as the spatial matcher does: it must complete, not
// deadlock behind the claimed chunks.
func TestShareCoversRange(t *testing.T) {
	type pc struct {
		name string
		pool *Pool
	}
	closed := New(4)
	closed.Close()
	var pools []pc
	for _, w := range []int{1, 2, 3, 8} {
		pools = append(pools, pc{fmt.Sprintf("workers=%d", w), New(w)})
	}
	pools = append(pools, pc{"closed", closed})
	for _, c := range pools {
		for _, n := range []int{0, 1, 64, 65, 1000, 4096, 10001} {
			hits := make([]int32, n)
			runHits := make([]int32, 3000)
			var runNHits [16]int32
			serials := 0
			c.pool.Share(func() {
				serials++
				c.pool.Run(len(runHits), 64, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&runHits[i], 1)
					}
				})
				c.pool.RunN(len(runNHits), func(k int) { atomic.AddInt32(&runNHits[k], 1) })
			}, n, 64, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			if serials != 1 {
				t.Fatalf("%s n=%d: serial ran %d times", c.name, n, serials)
			}
			for _, v := range [][]int32{hits, runHits, runNHits[:]} {
				for i, h := range v {
					if h != 1 {
						t.Fatalf("%s n=%d: index %d visited %d times", c.name, n, i, h)
					}
				}
			}
		}
		c.pool.Close()
	}
}

// TestShareInlineWhenSerial checks Share on a 1-worker pool, and on a range
// no longer than one chunk, runs fn over the whole range and then serial,
// inline on the caller: the serial order.
func TestShareInlineWhenSerial(t *testing.T) {
	for _, c := range []struct{ workers, n int }{{1, 1 << 12}, {4, 64}} {
		p := New(c.workers)
		var trace []string
		p.Share(func() { trace = append(trace, "serial") }, c.n, 64, func(lo, hi int) {
			trace = append(trace, fmt.Sprintf("fn[%d,%d)", lo, hi))
		})
		want := []string{fmt.Sprintf("fn[0,%d)", c.n), "serial"}
		if fmt.Sprint(trace) != fmt.Sprint(want) {
			t.Fatalf("workers=%d n=%d: ran %v, want %v", c.workers, c.n, trace, want)
		}
		p.Close()
	}
}

// TestClosedPoolRunsInline checks a closed pool degrades to inline
// execution instead of deadlocking.
func TestClosedPoolRunsInline(t *testing.T) {
	p := New(4)
	p.Close()
	p.Close() // idempotent
	sum := 0
	p.Run(100, 1, func(lo, hi int) { sum += hi - lo })
	if sum != 100 {
		t.Fatalf("closed-pool Run covered %d of 100", sum)
	}
	sum, ran := 0, false
	p.Share(func() { ran = true }, 100, 1, func(lo, hi int) { sum += hi - lo })
	if !ran || sum != 100 {
		t.Fatalf("closed-pool Share: serial ran %v, fn covered %d of 100", ran, sum)
	}
	hits := 0
	p.RunN(3, func(k int) { hits++ })
	if hits != 3 {
		t.Fatalf("closed-pool RunN ran %d of 3 shards", hits)
	}
}

// TestCloseParksWorkers checks Close returns the process to its baseline
// goroutine count — the pool must not leak parked workers, whether Run or
// Share woke them.
func TestCloseParksWorkers(t *testing.T) {
	for _, name := range []string{"run", "share"} {
		base := runtime.NumGoroutine()
		p := New(8)
		if name == "run" {
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { defer wg.Done(); p.Run(1<<16, 1024, func(lo, hi int) {}) }()
			wg.Wait()
		} else {
			p.Share(func() {}, 1<<16, 1024, func(lo, hi int) {})
		}
		if g := runtime.NumGoroutine(); g <= base {
			t.Fatalf("%s: expected spawned workers, goroutines %d <= baseline %d", name, g, base)
		}
		p.Close()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: goroutines did not return to baseline %d after Close (now %d)",
					name, base, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
	}
}
