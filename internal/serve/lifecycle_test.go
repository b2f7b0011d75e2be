package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"time"

	"popstab"
)

// lifecycleSpecs are the three small simulations the op sequences share.
var lifecycleSpecs = []popstab.Spec{
	{N: 4096, Tinner: 24, Seed: 101},
	{N: 4096, Tinner: 24, Seed: 102, Adversary: "greedy", K: 1, PerEpochBudget: 8},
	{N: 4096, Tinner: 24, Seed: 103, Topology: "ring"},
}

// lifecycleJob is what the sequence remembers of a job: its registry ID,
// which lifecycleSpecs entry it runs, and the round it started from (the
// snapshot's round for a restore, else 0). Handles are re-resolved through
// Lookup before every op, so hibernation never leaves one stale.
type lifecycleJob struct {
	id   string
	spec int
	base uint64
}

// cut is a snapshot some caller was handed mid-sequence.
type cut struct {
	spec int
	blob []byte
}

// TestLifecycleOpSequences drives seeded random sequences of manager
// operations — submit, duplicate submit, restore from a fresh snapshot,
// pause, resume, step, snapshot, wait, ResultByHash, GC and lookup of a
// hibernated ID — against one Manager with room for three sessions, at
// GOMAXPROCS 2 (run it under -race). Determinism is the oracle: every
// snapshot handed out mid-sequence, and every job's snapshot once it is
// stepped to done, must equal an uninterrupted run of its spec to the same
// round. Close must then leave no goroutine behind.
func TestLifecycleOpSequences(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	base := runtime.NumGoroutine()
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runLifecycle(t, seed) })
	}
	if !eventually(func() bool { return runtime.NumGoroutine() <= base }) {
		t.Fatalf("goroutines did not settle after Close: %d, %d before", runtime.NumGoroutine(), base)
	}
}

func runLifecycle(t *testing.T, seed uint64) {
	m := NewManager(Config{MaxConcurrent: 2, MaxSessions: 3, StepQuantum: 8, Store: NewMemStore()})
	defer m.Close()
	rng := rand.New(rand.NewPCG(seed, 23))
	var (
		jobs []lifecycleJob
		cuts []cut
	)
	// op gives every call its own deadline: a hang fails the sequence.
	op := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), 20*time.Second)
	}
	// expected reports whether err is an answer the manager may legitimately
	// give mid-sequence: a full registry (all three sessions busy) or a
	// result that is not ready or not there.
	expected := func(err error) bool {
		return err == nil || errors.Is(err, errFull) || errors.Is(err, ErrResultPending) ||
			errors.Is(err, ErrNoResult)
	}
	pick := func() (lifecycleJob, *Job) {
		lj := jobs[rng.IntN(len(jobs))]
		j, err := m.Lookup(lj.id)
		if err != nil {
			t.Fatalf("lookup %s: %v", lj.id, err)
		}
		return lj, j
	}
	check := func(what string, err error) {
		t.Helper()
		if !expected(err) {
			t.Fatalf("seed %d, %s: %v", seed, what, err)
		}
	}
	rounds := []uint64{0, 8, 16, 32}

	for i := 0; i < 40; i++ {
		ctx, cancel := op()
		kind := rng.IntN(11)
		if len(jobs) == 0 {
			kind = 0
		}
		switch kind {
		case 0, 1: // submit, or duplicate an earlier submission
			s, r := rng.IntN(len(lifecycleSpecs)), rounds[rng.IntN(len(rounds))]
			j, _, err := m.Submit(ctx, lifecycleSpecs[s], r)
			check("submit", err)
			if err == nil {
				jobs = append(jobs, lifecycleJob{j.ID(), s, 0})
				if kind == 1 {
					_, _, err := m.Submit(ctx, lifecycleSpecs[s], r)
					check("duplicate submit", err)
				}
			}
		case 2: // restore from a fresh snapshot
			lj, j := pick()
			spec, blob, err := j.Snapshot(ctx)
			check("snapshot for restore", err)
			cuts = append(cuts, cut{lj.spec, blob})
			r, err := m.Restore(ctx, spec, blob, rounds[rng.IntN(len(rounds))], rng.IntN(2) == 0)
			check("restore", err)
			if err == nil {
				jobs = append(jobs, lifecycleJob{r.ID(), lj.spec, cutRound(t, cuts[len(cuts)-1])})
			}
		case 3:
			_, j := pick()
			check("pause", j.Pause(ctx))
		case 4:
			_, j := pick()
			check("resume", j.Resume())
		case 5:
			_, j := pick()
			check("step", j.Step(uint64(1+rng.IntN(12))))
		case 6:
			lj, j := pick()
			_, blob, err := j.Snapshot(ctx)
			check("snapshot", err)
			cuts = append(cuts, cut{lj.spec, blob})
		case 7:
			_, j := pick()
			wctx, wcancel := context.WithTimeout(ctx, 20*time.Millisecond)
			_, _, err := j.Wait(wctx, StatusDone)
			wcancel()
			check("wait", err)
		case 8:
			h, err := lifecycleSpecs[rng.IntN(len(lifecycleSpecs))].Hash()
			if err != nil {
				t.Fatal(err)
			}
			_, err = m.ResultByHash(h)
			check("result by hash", err)
		case 9:
			m.GC()
		case 10: // look up a hibernated ID, reviving it
			m.mu.Lock()
			var hib []string
			for id := range m.hibernated {
				hib = append(hib, id)
			}
			m.mu.Unlock()
			if len(hib) > 0 {
				slices.Sort(hib)
				id := hib[rng.IntN(len(hib))]
				if _, err := m.Lookup(id); err != nil {
					t.Fatalf("seed %d: lookup of hibernated %s: %v", seed, id, err)
				}
			}
		}
		cancel()
	}

	// Step every job to done and collect its final cut.
	for _, lj := range jobs {
		j, err := m.Lookup(lj.id)
		if err != nil {
			t.Fatalf("final lookup %s: %v", lj.id, err)
		}
		ctx, cancel := op()
		if err := j.Resume(); err != nil {
			t.Fatalf("final resume %s: %v", lj.id, err)
		}
		info, done, err := j.Wait(ctx, StatusDone)
		if err != nil || !done || info.Stats.Round != lj.base+info.TargetRounds {
			t.Fatalf("job %s did not finish at its target: %+v (%v)", lj.id, info, err)
		}
		_, blob, err := j.Snapshot(ctx)
		cancel()
		if err != nil {
			t.Fatalf("final snapshot %s: %v", lj.id, err)
		}
		cuts = append(cuts, cut{lj.spec, blob})
	}
	checkCuts(t, cuts)
}

// checkCuts compares every cut with an uninterrupted run of its spec to the
// cut's round, stepping one reference session per spec through the rounds
// in increasing order.
func checkCuts(t *testing.T, cuts []cut) {
	t.Helper()
	type entry struct {
		round uint64
		blob  []byte
	}
	bySpec := make([][]entry, len(lifecycleSpecs))
	for _, c := range cuts {
		bySpec[c.spec] = append(bySpec[c.spec], entry{cutRound(t, c), c.blob})
	}
	for i, entries := range bySpec {
		slices.SortFunc(entries, func(a, b entry) int { return int(a.round) - int(b.round) })
		spec := lifecycleSpecs[i]
		spec.Workers = 1
		ref, err := popstab.NewSessionFromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if d := e.round - ref.Stats().Round; d > 0 {
				ref.Step(int(d))
			}
			if !bytes.Equal(e.blob, ref.Snapshot()) {
				t.Errorf("spec %d: cut at round %d differs from the uninterrupted run", i, e.round)
			}
		}
		ref.Close()
	}
}

// cutRound is the round a cut was taken at, read by restoring it.
func cutRound(t *testing.T, c cut) uint64 {
	t.Helper()
	s, err := popstab.RestoreSessionFromSpec(lifecycleSpecs[c.spec], c.blob)
	if err != nil {
		t.Fatalf("cut does not restore: %v", err)
	}
	defer s.Close()
	return s.Stats().Round
}
