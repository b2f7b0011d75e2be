// Package pool provides the engine's persistent worker pool: a fixed set of
// parked goroutines that data-parallel phases (compose/step sharding and
// the spatial matcher's candidate phase) wake per task instead of spawning
// fresh goroutines every round. At high round rates the per-round spawn +
// WaitGroup-barrier cost of the old scheme was a measurable serial tail
// (DESIGN.md §10); the pool replaces it with one channel send per helping
// worker. Every call — Run and Share — splits its work into numbered parts
// that the caller and the workers claim off one atomic counter, so a caller
// never waits for a part that no worker has started. The callback receives
// its part's number with its range, so a caller can keep per-part scratch.
// Share overlaps one serial task on the caller with chunked work the
// workers claim — the engine runs compose that way while the caller samples
// the matching.
//
// Determinism: the pool only ever runs callbacks the caller supplies over
// index ranges the caller derives from (n, grain, Workers()); which
// goroutine runs a range never enters the result. Nothing here consumes
// randomness or reorders outputs, so — exactly as with the old per-round
// goroutines — simulation output is bit-identical for every worker count.
// Workers is purely a throughput knob.
//
// A nil *Pool is the serial pool: Shards reports 1 and Run executes inline,
// so a component that shards only when handed a pool needs no fallback of
// its own.
//
// Lifecycle: workers are spawned lazily on first use and park on a shared
// task channel between rounds. Close releases them; a closed pool degrades
// gracefully (every Run and Share executes inline on the caller), so an
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

// call is the claimable state of one Run or Share: its parts are numbered
// 0..parts-1 and claimed off next by the caller and by helping workers
// alike. A helper task is a pointer to its call, so a Run allocates one call
// and nothing else.
//
// Run allocates a fresh call each time, and done counts its unfinished
// parts: the caller waits only for parts that a helper claimed, and a helper
// that runs after its call returned finds next exhausted and touches nothing
// else. Share reuses the call embedded in the Pool (it allocates nothing),
// so it waits for every helper it submitted instead: no helper of a Share
// outlives it, and none can reach the next Share.
type call struct {
	next  atomic.Int64 // index of the next unclaimed part
	parts int
	// A part k runs fn over the grain-sized chunk k (Share) or over the
	// k-th of parts even shards of [0, n) (Run).
	n, grain int
	fn       func(part, lo, hi int)
	// done counts unfinished parts (Run) or unfinished helpers (Share,
	// perHelper set).
	done      sync.WaitGroup
	perHelper bool
}

// claim runs unclaimed parts until none is left and reports how many it
// ran.
func (c *call) claim() int {
	ran := 0
	for {
		k := int(c.next.Add(1) - 1)
		if k >= c.parts {
			return ran
		}
		if c.grain > 0 {
			lo := k * c.grain
			c.fn(k, lo, min(lo+c.grain, c.n))
		} else {
			c.fn(k, k*c.n/c.parts, (k+1)*c.n/c.parts)
		}
		ran++
	}
}

// help is a worker's share of a call: claim what is left, then report.
func (c *call) help() {
	ran := c.claim()
	switch {
	case c.perHelper:
		c.done.Done()
	case ran > 0:
		c.done.Add(-ran)
	}
}

// Pool is a persistent worker pool of a fixed parallelism. The zero value is
// not usable; create with New. Run may be called concurrently with itself,
// from inside Share's serial task, and from inside a part: the caller claims
// parts itself, so no call waits on a queued task. At most one Share may be
// in flight, and nothing may run concurrently with Close.
type Pool struct {
	workers int // total participants, including the submitting goroutine
	jobs    chan *call
	stop    chan struct{}
	closed  atomic.Bool

	mu      sync.Mutex
	started int // spawned worker goroutines (≤ workers-1)

	// share is the in-flight Share's call, reused so that a Share
	// allocates nothing.
	share call
}

// New returns a pool of the given total parallelism (< 1 is treated as 1).
// The submitting goroutine always claims parts itself, so a pool of W
// spawns at most W-1 worker goroutines — and a pool of 1 spawns none and
// runs everything inline: the serial path has zero scheduling overhead.
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		workers: workers,
		// Room for the jobs of several back-to-back calls that a busy
		// worker has not drained yet. A full queue costs no correctness:
		// submit drops the job, and the caller claims the parts itself.
		jobs: make(chan *call, 8*workers),
		stop: make(chan struct{}),
	}
	p.share.perHelper = true
	return p
}

// Workers reports the pool's total parallelism (≥ 1).
func (p *Pool) Workers() int { return p.workers }

// Shards reports how many shards Run would split n items into at the given
// minimum grain: min(Workers, n/grain), at least 1. Callers that keep
// per-shard scratch size it with Shards and index it by Run's part number.
// A nil or closed pool reports 1.
func (p *Pool) Shards(n, grain int) int {
	if p == nil || p.closed.Load() {
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

// Run executes fn over w = Shards(n, grain) contiguous shards of [0, n),
// blocking until all shards complete: part k is [k·n/w, (k+1)·n/w) and runs
// exactly once, as fn(k, lo, hi). grain bounds how finely the range splits
// (at least grain items per shard); with one effective shard — small n,
// Workers 1, or a nil or closed pool — fn(0, 0, n) runs inline with no
// synchronization. Otherwise the caller claims shards alongside the workers
// it wakes and waits only for shards a worker has started. fn must be safe
// to call concurrently on disjoint ranges.
func (p *Pool) Run(n, grain int, fn func(part, lo, hi int)) {
	w := p.Shards(n, grain)
	if w <= 1 {
		fn(0, 0, n)
		return
	}
	c := &call{parts: w, n: n, fn: fn}
	c.done.Add(c.parts)
	for k := w - 1; k > 0; k-- {
		if !p.submit(c) {
			break
		}
	}
	if ran := c.claim(); ran > 0 {
		c.done.Add(-ran)
	}
	c.done.Wait()
}

// Share runs serial on the caller while the workers claim grain-sized chunks
// of [0, n) and run fn on each (chunk k as fn(k, k·grain, ...)); once serial
// returns, the caller claims chunks too, and Share returns when every chunk
// is done and every worker it woke has let go of it. serial may call Run:
// while the workers are busy with chunks, the caller claims that call's
// shards itself, so even a chunk that waits for serial's calls to return
// cannot deadlock. With one worker, a closed pool, or n ≤ grain, Share runs
// fn(0, 0, n) and then serial inline, which is the serial order. fn must be
// safe to call concurrently on disjoint ranges, and serial must not touch
// what fn touches.
func (p *Pool) Share(serial func(), n, grain int, fn func(part, lo, hi int)) {
	grain = max(grain, 1)
	if p.workers <= 1 || p.closed.Load() || n <= grain {
		fn(0, 0, n)
		serial()
		return
	}
	c := &p.share
	c.n, c.grain, c.parts, c.fn = n, grain, (n+grain-1)/grain, fn
	c.next.Store(0)
	for k := min(c.parts, p.workers) - 1; k > 0; k-- {
		c.done.Add(1)
		if !p.submit(c) {
			c.done.Done()
			break
		}
	}
	serial()
	c.claim()
	c.done.Wait()
	c.fn = nil // a pool must not keep its owner reachable (see the cleanup)
}

// Close releases every parked goroutine. Idempotent. Must not be called
// concurrently with Run or Share; after Close both execute inline, so
// a closed pool's owner keeps working (serially) rather than deadlocking.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.stop)
}

// submit offers c to one worker, growing the worker set toward workers-1,
// and reports whether it was queued. It never blocks: on a closed pool or
// a full queue it returns false, and the caller claims the parts itself.
func (p *Pool) submit(c *call) bool {
	if p.closed.Load() {
		return false
	}
	p.mu.Lock()
	if p.started < p.workers-1 {
		p.started++
		go p.worker()
	}
	p.mu.Unlock()
	select {
	case p.jobs <- c:
		return true
	default:
		return false
	}
}

// worker is the parked helper: take calls, exit on stop. Queued calls win
// over a concurrent stop so Close never strands a Share's helper (Close is
// not called concurrently with submission, but a worker observing both
// prefers the call).
func (p *Pool) worker() {
	for {
		select {
		case c := <-p.jobs:
			c.help()
		default:
			select {
			case c := <-p.jobs:
				c.help()
			case <-p.stop:
				return
			}
		}
	}
}
