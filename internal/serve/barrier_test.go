package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestCallersSeeRealStates pins that a caller never observes a state the
// session was not really in, at GOMAXPROCS 2 (run it under -race): the round
// a Pause returns at is the round a snapshot cut right after it holds, and a
// restored done session reads done — at its restored round — from its very
// first Info, not queued at round 0.
func TestCallersSeeRealStates(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m := NewManager(Config{MaxConcurrent: 2, StepQuantum: 16})
	defer m.Close()
	ctx := context.Background()

	for seed := uint64(1); seed <= 4; seed++ {
		j, _, err := m.Submit(ctx, quickSpec(seed), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		// Pause at once (often mid-build), then again once the resumed job
		// has advanced (often mid-quantum).
		for k := 0; k < 2; k++ {
			if err := j.Pause(ctx); err != nil {
				t.Fatal(err)
			}
			info := j.Info()
			if info.Status != StatusPaused {
				t.Fatalf("seed %d: Pause returned with status %s", seed, info.Status)
			}
			spec, blob, err := j.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			r, err := m.Restore(ctx, spec, blob, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Info(); got.Stats.Round != info.Stats.Round {
				t.Fatalf("seed %d: paused at round %d, snapshot holds round %d", seed, info.Stats.Round, got.Stats.Round)
			}
			if err := j.Resume(); err != nil {
				t.Fatal(err)
			}
			if !eventually(func() bool { return j.Info().Stats.Round > info.Stats.Round }) {
				t.Fatalf("seed %d: resumed job did not advance", seed)
			}
		}
	}

	// A restored done session is done from its first Info.
	j, _, err := m.Submit(ctx, quickSpec(9), 48)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	spec, blob, err := j.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		r, err := m.Restore(ctx, spec, blob, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if info := r.Info(); info.Status != StatusDone || info.Stats.Round != 48 {
			t.Fatalf("restored done session first read %s at round %d, want done at 48", info.Status, info.Stats.Round)
		}
	}
}

// TestResultByHashDuringShutdown races the content-addressed result lookup
// against running, checkpointing jobs and a concurrent Shutdown (run it
// under -race). ResultByHash takes job locks and the checkpoint path takes
// the manager lock under a job lock, so a lock-order inversion between them
// deadlocks here; the watchdog turns that into a failure instead of a hang.
func TestResultByHashDuringShutdown(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m := NewManager(Config{MaxConcurrent: 2, StepQuantum: 4, CheckpointEvery: 4, Store: NewMemStore()})
	ctx := context.Background()

	var hashes []string
	for seed := uint64(1); seed <= 4; seed++ {
		spec := quickSpec(seed)
		if _, _, err := m.Submit(ctx, spec, 1<<20); err != nil {
			t.Fatal(err)
		}
		h, err := spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, h)
	}
	done, _, err := m.Submit(ctx, quickSpec(5), 8)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, done)
	doneHash, _ := quickSpec(5).Hash()

	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			var once sync.Once
			defer once.Do(started.Done)
			for pass := 0; ; pass++ {
				if pass == 1 {
					once.Do(started.Done)
				}
				select {
				case <-stop:
					return
				default:
				}
				for _, h := range hashes {
					if _, err := m.ResultByHash(h); err != nil && !errors.Is(err, ErrResultPending) {
						t.Errorf("running hash: %v", err)
						return
					}
				}
				if _, err := m.ResultByHash(doneHash); err != nil {
					t.Errorf("done hash: %v", err)
					return
				}
			}
		}()
	}

	started.Wait()
	shut := make(chan error, 1)
	go func() { shut <- m.Shutdown(ctx) }()
	select {
	case err := <-shut:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Shutdown hung while ResultByHash ran: lock-order inversion")
	}
	close(stop)
	wg.Wait()
}
