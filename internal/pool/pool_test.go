package pool

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testPools returns named pools straddling the inline and claiming paths
// (1, 2, 3 and 8 workers), a closed pool and the nil pool. close releases
// them.
func testPools() (pools []namedPool, close func()) {
	for _, w := range []int{1, 2, 3, 8} {
		pools = append(pools, namedPool{fmt.Sprintf("workers=%d", w), New(w)})
	}
	closed := New(4)
	closed.Close()
	pools = append(pools, namedPool{"closed", closed}, namedPool{"nil", nil})
	return pools, func() {
		for _, np := range pools {
			if np.pool != nil {
				np.pool.Close()
			}
		}
	}
}

type namedPool struct {
	name string
	pool *Pool
}

// checkRunParts runs p.Run(n, grain) and checks its partition contract:
// with w = Shards(n, grain), part k runs exactly once and covers exactly
// [k·n/w, (k+1)·n/w). Per-part scratch indexed by the part number relies
// on it.
func checkRunParts(t *testing.T, name string, p *Pool, n, grain int) {
	t.Helper()
	w := p.Shards(n, grain)
	runs := make([]int32, w)
	ranges := make([][2]int, w)
	var bad atomic.Int32
	p.Run(n, grain, func(part, lo, hi int) {
		if part < 0 || part >= w {
			bad.Store(int32(part) + 1)
			return
		}
		atomic.AddInt32(&runs[part], 1)
		ranges[part] = [2]int{lo, hi}
	})
	if b := bad.Load(); b != 0 {
		t.Fatalf("%s n=%d grain=%d: part %d outside [0, %d)", name, n, grain, b-1, w)
	}
	for k := range w {
		want := [2]int{k * n / w, (k + 1) * n / w}
		if runs[k] != 1 || ranges[k] != want {
			t.Fatalf("%s n=%d grain=%d: part %d of %d ran %d times over %v, want once over %v",
				name, n, grain, k, w, runs[k], ranges[k], want)
		}
	}
}

// TestRunCoversRange checks Run's partition — part k of Shards(n, grain)
// covers [k·n/w, (k+1)·n/w), once — for shard counts straddling the inline
// and pooled paths, on nil and closed pools too.
func TestRunCoversRange(t *testing.T) {
	pools, closeAll := testPools()
	defer closeAll()
	for _, np := range pools {
		for _, n := range []int{0, 1, 5, 1000, 4096, 10001} {
			for _, grain := range []int{1, 64, 1024} {
				checkRunParts(t, np.name, np.pool, n, grain)
			}
		}
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
	inc := func(v []int32) func(part, lo, hi int) {
		return func(_, lo, hi int) {
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
// exactly once, that chunk k starts at k·grain, and that serial runs exactly
// once, on pools straddling the inline and claiming paths and on a closed
// pool. serial shards into the same pool through Run, at a coarse and at a
// one-item grain, as the engine's matcher does: it must complete, not
// deadlock behind the claimed chunks.
func TestShareCoversRange(t *testing.T) {
	pools, closeAll := testPools()
	defer closeAll()
	for _, c := range pools {
		if c.pool == nil {
			continue // Share is a method of a live pool
		}
		for _, n := range []int{0, 1, 64, 65, 1000, 4096, 10001} {
			hits := make([]int32, n)
			serials := 0
			var misplaced atomic.Int32
			c.pool.Share(func() {
				serials++
				checkRunParts(t, c.name+" serial", c.pool, 3000, 64)
				checkRunParts(t, c.name+" serial", c.pool, 16, 1)
			}, n, 64, func(part, lo, hi int) {
				if lo != part*64 {
					misplaced.Add(1)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			if serials != 1 {
				t.Fatalf("%s n=%d: serial ran %d times", c.name, n, serials)
			}
			if m := misplaced.Load(); m != 0 {
				t.Fatalf("%s n=%d: %d chunks did not start at part·grain", c.name, n, m)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("%s n=%d: index %d visited %d times", c.name, n, i, h)
				}
			}
		}
	}
}

// TestShareInlineWhenSerial checks Share on a 1-worker pool, and on a range
// no longer than one chunk, runs fn over the whole range and then serial,
// inline on the caller: the serial order.
func TestShareInlineWhenSerial(t *testing.T) {
	for _, c := range []struct{ workers, n int }{{1, 1 << 12}, {4, 64}} {
		p := New(c.workers)
		var trace []string
		p.Share(func() { trace = append(trace, "serial") }, c.n, 64, func(part, lo, hi int) {
			trace = append(trace, fmt.Sprintf("fn%d[%d,%d)", part, lo, hi))
		})
		want := []string{fmt.Sprintf("fn0[0,%d)", c.n), "serial"}
		if fmt.Sprint(trace) != fmt.Sprint(want) {
			t.Fatalf("workers=%d n=%d: ran %v, want %v", c.workers, c.n, trace, want)
		}
		p.Close()
	}
}

// TestClosedPoolRunsInline checks a closed pool degrades to inline
// execution instead of deadlocking: Run and Share each run one part, part
// 0 over the whole range, on the caller (the calls record without atomics,
// which -race would flag if a part ran elsewhere).
func TestClosedPoolRunsInline(t *testing.T) {
	p := New(4)
	p.Close()
	p.Close() // idempotent
	var parts [][3]int
	record := func(part, lo, hi int) { parts = append(parts, [3]int{part, lo, hi}) }
	for _, n := range []int{3, 100} {
		parts = parts[:0]
		p.Run(n, 1, record)
		if len(parts) != 1 || parts[0] != [3]int{0, 0, n} {
			t.Fatalf("closed-pool Run(%d) parts %v, want [[0 0 %d]]", n, parts, n)
		}
	}
	parts, ran := parts[:0], false
	p.Share(func() { ran = true }, 100, 1, record)
	if !ran || len(parts) != 1 || parts[0] != [3]int{0, 0, 100} {
		t.Fatalf("closed-pool Share: serial ran %v, parts %v, want [[0 0 100]]", ran, parts)
	}
}

// TestNilPoolRunsInline checks the nil pool is the serial pool: one shard,
// part 0 over the whole range, on the caller.
func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if w := p.Shards(1<<20, 1); w != 1 {
		t.Fatalf("nil-pool Shards = %d, want 1", w)
	}
	for _, n := range []int{3, 100} {
		var parts [][3]int
		p.Run(n, 1, func(part, lo, hi int) { parts = append(parts, [3]int{part, lo, hi}) })
		if len(parts) != 1 || parts[0] != [3]int{0, 0, n} {
			t.Fatalf("nil-pool Run(%d) parts %v, want [[0 0 %d]]", n, parts, n)
		}
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
			go func() { defer wg.Done(); p.Run(1<<16, 1024, func(_, _, _ int) {}) }()
			wg.Wait()
		} else {
			p.Share(func() {}, 1<<16, 1024, func(_, _, _ int) {})
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
// serial's two Runs have returned, so the pool's workers are all stuck in
// chunks while serial runs. The caller claims those calls' shards itself,
// so they return and release the chunks.
func TestShareSerialRunsWhileChunksWait(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		p := New(workers)
		withDeadline(t, fmt.Sprintf("workers=%d", workers), func() {
			released := make(chan struct{})
			var coarseHits, fineHits [4096]int32
			inc := func(v []int32) func(part, lo, hi int) {
				return func(_, lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&v[i], 1)
					}
				}
			}
			p.Share(func() {
				p.Run(len(coarseHits), 64, inc(coarseHits[:]))
				p.Run(len(fineHits), 1, inc(fineHits[:]))
				close(released)
			}, 64*64, 64, func(_, _, _ int) { <-released })
			for _, v := range [][]int32{coarseHits[:], fineHits[:]} {
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

// TestClaimedShardsRunOnce checks, over repeated calls, that every part of
// Run runs exactly once over its fixed range and every index is visited
// once, however the caller and the workers split the claims, on pools
// straddling the inline and claiming paths and on nil and closed pools.
func TestClaimedShardsRunOnce(t *testing.T) {
	pools, closeAll := testPools()
	defer closeAll()
	for _, np := range pools {
		for iter := 0; iter < 20; iter++ {
			for _, n := range []int{0, 1, 2, 3, 8, 9, 64, 129, 1000, 10001} {
				checkRunParts(t, np.name, np.pool, n, 1)
				hits := make([]int32, n)
				np.pool.Run(n, 64, func(_, lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("%s: Run n=%d: index %d visited %d times", np.name, n, i, h)
					}
				}
			}
		}
	}
}

// TestStaleHelpersNeverClaim runs many back-to-back Run calls, coarse and
// one item per part, first while the pool's worker is stuck in a Share
// chunk (so their helper tasks pile up or are dropped) and then while it
// drains those stale helpers. A shard must never run after its call returned, and each shard
// must run exactly once: a stale helper finds its own call exhausted and
// never reaches a later call's state. Run under -race, this also checks
// that the claim handoff is properly synchronized.
func TestStaleHelpersNeverClaim(t *testing.T) {
	p := New(2)
	defer p.Close()
	check := func(n, grain int) {
		var returned atomic.Bool
		hits := make([]int32, n)
		p.Run(n, grain, func(_, lo, hi int) {
			if returned.Load() {
				t.Errorf("n=%d: a shard ran after its call returned", n)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
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
			check(128+i%256, 64)
			check(2+i%5, 1)
		}
	}
	withDeadline(t, "stale helpers", func() {
		released := make(chan struct{})
		p.Share(func() {
			burst()
			close(released)
		}, 2*64, 64, func(_, _, _ int) { <-released })
		burst()
		// A Share waits for its helper, which queues behind every stale
		// one: once it returns, all of them have run.
		p.Share(func() {}, 2*64, 64, func(_, _, _ int) {})
	})
}
