package sim

import (
	"runtime"
	"testing"
	"time"

	"popstab/internal/protocol"
)

// goroutinesSettleTo polls until the live goroutine count drops to at most
// limit (the runtime parks workers asynchronously after a pool close).
func goroutinesSettleTo(limit int) bool {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= limit {
			return true
		}
		runtime.Gosched()
		time.Sleep(2 * time.Millisecond)
	}
	return runtime.NumGoroutine() <= limit
}

// TestEngineCloseReleasesPoolGoroutines pins the pool lifecycle contract:
// an engine that sharded work across its pool returns the process to its
// pre-engine goroutine count after Close. This is the leak guard for the
// job server, which holds many engines over a process lifetime.
func TestEngineCloseReleasesPoolGoroutines(t *testing.T) {
	p := fastParams(t)
	baseline := runtime.NumGoroutine()

	e, err := New(Config{Params: p, Protocol: protocol.MustNew(p), Seed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// N = 4096 with minShardAgents = 1024 engages all 4 shards, spawning
	// the pool's (lazily created) worker goroutines.
	for i := 0; i < 5; i++ {
		e.RunRound()
	}
	e.Close()
	if !goroutinesSettleTo(baseline) {
		t.Fatalf("goroutines did not settle after Close: %d, baseline %d", runtime.NumGoroutine(), baseline)
	}
	// Idempotent.
	e.Close()
}

// TestDroppedEngineReleasesPoolGoroutines pins the runtime cleanup: an
// engine dropped without Close, after rounds that ran the compose∥match
// overlap on its pool, is collected and its pool's workers exit. The pool
// must hold no reference back to the engine once a round is over, or the
// cleanup never runs.
func TestDroppedEngineReleasesPoolGoroutines(t *testing.T) {
	p := fastParams(t)
	baseline := runtime.NumGoroutine()
	func() {
		e := MustNew(Config{Params: p, Protocol: protocol.MustNew(p), Seed: 1, Workers: 4})
		e.RunRounds(3)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(2 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Fatalf("dropped engine's pool goroutines still live: %d, baseline %d", g, baseline)
	}
}

// TestEngineRunsIdenticallyAfterClose checks Close is a resource release,
// not a shutdown: a closed engine keeps producing bit-identical output
// (every sharded phase degrades to inline execution).
func TestEngineRunsIdenticallyAfterClose(t *testing.T) {
	p := fastParams(t)
	mk := func() *Engine {
		e, err := New(Config{Params: p, Protocol: protocol.MustNew(p), Seed: 7, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	open, closed := mk(), mk()
	for i := 0; i < 5; i++ {
		open.RunRound()
		closed.RunRound()
	}
	closed.Close()
	for i := 0; i < 10; i++ {
		ra, rb := open.RunRound(), closed.RunRound()
		if ra != rb {
			t.Fatalf("round %d diverged after Close:\n open=%+v\nclosed=%+v", i, ra, rb)
		}
	}
	a, b := open.Snapshot(), closed.Snapshot()
	if string(a) != string(b) {
		t.Fatal("snapshots diverged after Close")
	}
	open.Close()
}
