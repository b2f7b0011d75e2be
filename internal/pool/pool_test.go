package pool

import (
	"fmt"
	"runtime"
	"slices"
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

// TestNilPoolRunsInline checks the nil pool is the serial pool: one shard,
// Run over the whole range and RunN's indices in order, all on the caller.
func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if w := p.Shards(1<<20, 1); w != 1 {
		t.Fatalf("nil-pool Shards = %d, want 1", w)
	}
	var ranges [][2]int
	p.Run(100, 1, func(lo, hi int) { ranges = append(ranges, [2]int{lo, hi}) })
	if len(ranges) != 1 || ranges[0] != [2]int{0, 100} {
		t.Fatalf("nil-pool Run ranges %v, want [[0 100]]", ranges)
	}
	var order []int
	p.RunN(3, func(k int) { order = append(order, k) })
	if !slices.Equal(order, []int{0, 1, 2}) {
		t.Fatalf("nil-pool RunN order %v, want [0 1 2]", order)
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

// TestShareSerialRunsWhileChunksWait is the shape that deadlocked when
// Run's shards queued behind Share's chunk claims: every chunk blocks until
// serial's Run and RunN have returned, so the pool's workers are all stuck
// in chunks while serial runs. The caller claims those calls' shards
// itself, so they return and release the chunks.
func TestShareSerialRunsWhileChunksWait(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		p := New(workers)
		withDeadline(t, fmt.Sprintf("workers=%d", workers), func() {
			released := make(chan struct{})
			var runHits, runNHits [4096]int32
			p.Share(func() {
				p.Run(len(runHits), 64, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&runHits[i], 1)
					}
				})
				p.RunN(len(runNHits), func(k int) { atomic.AddInt32(&runNHits[k], 1) })
				close(released)
			}, 64*64, 64, func(lo, hi int) { <-released })
			for _, v := range [][]int32{runHits[:], runNHits[:]} {
				for i, h := range v {
					if h != 1 {
						t.Errorf("workers=%d: index %d visited %d times", workers, i, h)
						return
					}
				}
			}
		})
		p.Close()
	}
}

// withDeadline runs fn on its own goroutine and fails the test if it has
// not returned within seconds: a deadlocked pool fails fast instead of
// hanging the suite. On failure the stuck goroutine is left behind.
func withDeadline(t *testing.T, name string, fn func()) {
	t.Helper()
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		fn()
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: deadlocked", name)
	}
}

// TestClaimedShardsRunOnce checks that every shard of Run and RunN runs
// exactly once however the caller and the workers split the claims, on
// pools straddling the inline and claiming paths, on a closed pool, and for
// RunN fanned out wider than the pool.
func TestClaimedShardsRunOnce(t *testing.T) {
	closed := New(4)
	closed.Close()
	pools := map[string]*Pool{"closed": closed}
	for _, w := range []int{1, 2, 3, 8} {
		pools[fmt.Sprintf("workers=%d", w)] = New(w)
	}
	for name, p := range pools {
		for iter := 0; iter < 20; iter++ {
			for _, n := range []int{0, 1, 64, 129, 1000, 10001} {
				hits := make([]int32, n)
				p.Run(n, 64, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("%s: Run n=%d: index %d visited %d times", name, n, i, h)
					}
				}
			}
			for _, w := range []int{0, 1, 2, 3, 8, 9, 100} {
				hits := make([]int32, w)
				p.RunN(w, func(k int) { atomic.AddInt32(&hits[k], 1) })
				for k, h := range hits {
					if h != 1 {
						t.Fatalf("%s: RunN w=%d: shard %d ran %d times", name, w, k, h)
					}
				}
			}
		}
		p.Close()
	}
}

// TestStaleHelpersNeverClaim runs many back-to-back Run and RunN calls,
// first while the pool's worker is stuck in a Share chunk (so their helper
// tasks pile up or are dropped) and then while it drains those stale
// helpers. A shard must never run after its call returned, and each shard
// must run exactly once: a stale helper finds its own call exhausted and
// never reaches a later call's state. Run under -race, this also checks
// that the claim handoff is properly synchronized.
func TestStaleHelpersNeverClaim(t *testing.T) {
	p := New(2)
	defer p.Close()
	check := func(n int, shards bool) {
		var returned atomic.Bool
		hits := make([]int32, n)
		mark := func(lo, hi int) {
			if returned.Load() {
				t.Errorf("n=%d: a shard ran after its call returned", n)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		}
		if shards {
			p.RunN(n, func(k int) { mark(k, k+1) })
		} else {
			p.Run(n, 64, mark)
		}
		returned.Store(true)
		for i, h := range hits {
			if h != 1 {
				t.Errorf("n=%d: index %d visited %d times", n, i, h)
				return
			}
		}
	}
	burst := func() {
		for i := 0; i < 300; i++ {
			check(128+i%256, false)
			check(2+i%5, true)
		}
	}
	withDeadline(t, "stale helpers", func() {
		released := make(chan struct{})
		p.Share(func() {
			burst()
			close(released)
		}, 2*64, 64, func(lo, hi int) { <-released })
		burst()
		// A Share waits for its helper, which queues behind every stale
		// one: once it returns, all of them have run.
		p.Share(func() {}, 2*64, 64, func(lo, hi int) {})
	})
}
