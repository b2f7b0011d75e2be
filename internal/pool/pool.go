// Package pool provides the engine's persistent worker pool: a fixed set of
// parked goroutines that data-parallel phases (compose/step sharding, the
// spatial matching pipeline, the apply-plan scatter, snapshot encoding) wake
// per task instead of spawning fresh goroutines every round. At high round
// rates the per-round spawn + WaitGroup-barrier cost of the old scheme was a
// measurable serial tail (DESIGN.md §10); the pool replaces it with one
// channel send per shard. Share overlaps one serial task on the caller with
// chunked work the workers claim — the engine runs compose that way while
// the caller samples the matching.
//
// Determinism: the pool only ever runs callbacks the caller supplies over
// index ranges the caller derives from (n, grain, Workers()); which
// goroutine runs a range never enters the result. Nothing here consumes
// randomness or reorders outputs, so — exactly as with the old per-round
// goroutines — simulation output is bit-identical for every worker count.
// Workers is purely a throughput knob.
//
// Lifecycle: workers are spawned lazily on first use and park on a shared
// task channel between rounds. Close releases them; a closed pool degrades
// gracefully (every Run/RunN/Share executes inline on the caller), so an
// engine whose pool was closed keeps producing identical results, just
// serially. The engine closes its pool explicitly (Engine.Close) and also
// attaches a runtime.AddCleanup so pools of engines that become garbage —
// e.g. sessions hibernated or reaped by internal/serve, which simply drop
// the engine — park-and-exit instead of leaking goroutines.
package pool

import (
	"sync"
	"sync/atomic"
)

// task is one unit of sharded work: run executes the shard, done signals the
// submitting goroutine.
type task struct {
	run  func()
	done *sync.WaitGroup
}

// Pool is a persistent worker pool of a fixed parallelism. The zero value is
// not usable; create with New. Run and RunN may be called concurrently with
// each other and from inside Share's serial task (tasks never block inside
// the pool). At most one Share may be in flight, and nothing may run
// concurrently with Close.
type Pool struct {
	workers int // total participants, including the submitting goroutine
	jobs    chan task
	stop    chan struct{}
	closed  atomic.Bool

	mu      sync.Mutex
	started int // spawned worker goroutines (≤ workers-1)

	// share is the in-flight Share's chunked range; claim is its worker
	// task, bound once in New so that a Share allocates nothing.
	share struct {
		next     atomic.Int64 // index of the next unclaimed chunk
		n, grain int
		chunks   int
		fn       func(lo, hi int)
		done     sync.WaitGroup
	}
	claim func()
}

// New returns a pool of the given total parallelism (< 1 is treated as 1).
// The submitting goroutine always executes one shard itself, so a pool of W
// spawns at most W-1 worker goroutines — and a pool of 1 spawns none and
// runs everything inline: the serial path has zero scheduling overhead.
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		workers: workers,
		jobs:    make(chan task, 8*workers),
		stop:    make(chan struct{}),
	}
	p.claim = p.claimChunks
	return p
}

// Workers reports the pool's total parallelism (≥ 1).
func (p *Pool) Workers() int { return p.workers }

// Closed reports whether Close has been called.
func (p *Pool) Closed() bool { return p.closed.Load() }

// Shards reports how many shards Run would split n items into at the given
// minimum grain: min(Workers, n/grain), at least 1. Callers that need the
// shard count up front (per-shard accumulators, prefix sums) use it so their
// partition matches Run's.
func (p *Pool) Shards(n, grain int) int {
	if p.closed.Load() {
		return 1
	}
	w := p.workers
	if grain > 0 {
		if lim := n / grain; w > lim {
			w = lim
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes fn over up to Workers contiguous shards of [0, n), blocking
// until all shards complete. The submitting goroutine runs the last shard
// itself. grain bounds how finely the range splits (at least grain items per
// shard); with one effective shard — small n, Workers 1, or a closed pool —
// fn runs inline with no synchronization. fn must be safe to call
// concurrently on disjoint ranges.
func (p *Pool) Run(n, grain int, fn func(lo, hi int)) {
	w := p.Shards(n, grain)
	if w <= 1 {
		fn(0, n)
		return
	}
	var done sync.WaitGroup
	done.Add(w - 1)
	for k := 0; k < w-1; k++ {
		lo, hi := k*n/w, (k+1)*n/w
		p.submit(task{run: func() { fn(lo, hi) }, done: &done})
	}
	fn((w-1)*n/w, n)
	done.Wait()
}

// RunN fans fn out over shard indices 0..w-1, blocking until all complete.
// The submitting goroutine runs the last index itself. It is Run for callers
// that partition work themselves (per-shard counters, cell ranges). w may
// exceed Workers — the extra shards queue behind the spawned workers — and
// on a pool of 1 (which spawns no workers at all) every index runs inline,
// so over-fanned submissions degrade to serial instead of filling the job
// buffer with tasks nobody drains.
func (p *Pool) RunN(w int, fn func(k int)) {
	if w <= 1 || p.workers <= 1 || p.closed.Load() {
		for k := 0; k < w; k++ {
			fn(k)
		}
		return
	}
	var done sync.WaitGroup
	done.Add(w - 1)
	for k := 0; k < w-1; k++ {
		k := k
		p.submit(task{run: func() { fn(k) }, done: &done})
	}
	fn(w - 1)
	done.Wait()
}

// Share runs serial on the caller while the workers claim grain-sized chunks
// of [0, n) and run fn on each; once serial returns, the caller claims
// chunks too, and Share returns when every chunk is done. serial may call
// Run and RunN: their shards queue behind the workers' chunk claims, which
// never wait on anything. With one worker, a closed pool, or n ≤ grain,
// Share runs fn(0, n) and then serial inline, which is the serial order.
// fn must be safe to call concurrently on disjoint ranges, and serial must
// not touch what fn touches.
func (p *Pool) Share(serial func(), n, grain int, fn func(lo, hi int)) {
	grain = max(grain, 1)
	if p.workers <= 1 || p.closed.Load() || n <= grain {
		fn(0, n)
		serial()
		return
	}
	s := &p.share
	s.n, s.grain, s.chunks, s.fn = n, grain, (n+grain-1)/grain, fn
	s.next.Store(0)
	helpers := min(p.workers-1, s.chunks)
	s.done.Add(helpers)
	for k := 0; k < helpers; k++ {
		p.submit(task{run: p.claim, done: &s.done})
	}
	serial()
	p.claimChunks()
	s.done.Wait()
	s.fn = nil // a pool must not keep its owner reachable (see the cleanup)
}

// claimChunks runs the in-flight Share's fn on one chunk at a time until
// every chunk is claimed.
func (p *Pool) claimChunks() {
	s := &p.share
	for {
		c := int(s.next.Add(1) - 1)
		if c >= s.chunks {
			return
		}
		lo := c * s.grain
		s.fn(lo, min(lo+s.grain, s.n))
	}
}

// Close releases every parked goroutine. Idempotent. Must not be called
// concurrently with Run/RunN/Share; after Close they all execute inline, so
// a closed pool's owner keeps working (serially) rather than deadlocking.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.stop)
}

// submit enqueues one task, growing the worker set toward workers-1.
func (p *Pool) submit(t task) {
	if p.closed.Load() {
		t.run()
		t.done.Done()
		return
	}
	p.mu.Lock()
	if p.started < p.workers-1 {
		p.started++
		go p.worker()
	}
	p.mu.Unlock()
	p.jobs <- t
}

// worker is the parked shard executor: drain tasks, exit on stop. Queued
// tasks win over a concurrent stop so Close never strands submitted work
// (Close is not called concurrently with submission, but a worker observing
// both prefers the task).
func (p *Pool) worker() {
	for {
		select {
		case t := <-p.jobs:
			t.run()
			t.done.Done()
		default:
			select {
			case t := <-p.jobs:
				t.run()
				t.done.Done()
			case <-p.stop:
				return
			}
		}
	}
}
