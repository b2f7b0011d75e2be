package main

import (
	"fmt"
	"runtime"
	"time"

	"popstab"
	"popstab/internal/params"
)

// engineWorkload is a single-engine workload: one Spec stepped a round at a
// time through popstab.Session.
type engineWorkload struct {
	spec func(seed uint64) popstab.Spec
	// prefix is the round at which the exact counters and the snapshot
	// digest are taken; every window runs at least this far.
	prefix uint64
}

const (
	engineN      = 1 << 18
	engineTinner = 36 // epoch = 9·Tinner = 324 rounds
	setupRepeats = 5
	warmupRounds = 2
)

var engineWorkloads = map[string]engineWorkload{
	"mixed-greedy": {prefix: 648, spec: func(seed uint64) popstab.Spec {
		return popstab.Spec{
			N: engineN, Tinner: engineTinner,
			Adversary: "greedy", K: 1, PerEpochBudget: maxTolerableK(engineN, engineTinner),
			Seed: seed,
		}
	}},
	"torus-patch": {prefix: 40, spec: func(seed uint64) popstab.Spec {
		return popstab.Spec{
			N: engineN, Tinner: engineTinner, Topology: "torus",
			Adversary: "patch-combo", Patch: &popstab.BallSpec{X: 0.5, Y: 0.5, R: 0.05},
			K: 1, PerEpochBudget: maxTolerableK(engineN, engineTinner),
			Seed: seed,
		}
	}},
}

// maxTolerableK is the paper's per-epoch adversary budget at (n, tinner).
func maxTolerableK(n, tinner int) int {
	p, err := params.Derive(n, params.WithTinner(tinner))
	if err != nil {
		panic(fmt.Sprintf("perfbench: constant parameters rejected: %v", err))
	}
	return p.MaxTolerableK()
}

// prefixState is the run's state at the prefix round: counters and a
// digest that depend only on the spec, never on the worker count or host.
type prefixState struct {
	births, deaths, alterations uint64
	size                        int
	snapshot                    []byte
	specWalks, serialWalks      uint64
}

// engineRun is what one stepping window measured.
type engineRun struct {
	roundMS     []float64
	agentRounds float64
	elapsed     time.Duration // wall time, minus the prefix capture
	at          *prefixState

	// Traced windows only.
	phases      popstab.RoundStats // window delta
	matchDelta  popstab.MatchPipelineStats
	wallNS      float64 // Σ Step(1) wall time
	critNS      float64 // Σ per-round critical path
	turnNS      []float64
	censusMS    []float64
	prefixPh    popstab.RoundStats // delta over (window start, prefix]
	prefixMatch popstab.MatchPipelineStats
	prefixWall  float64
}

// stepWindow steps sess one round at a time until done reports true.
func stepWindow(sess *popstab.Session, prefix uint64, traced, parallel bool, rep *report,
	done func(w *engineRun, round uint64, elapsed time.Duration) bool) *engineRun {
	w := &engineRun{}
	sim := sess.Sim()
	epochLen := uint64(sim.EpochLen())
	startRS := sess.RoundStats()
	prevRS := startRS
	startMatch, _ := sim.MatchStats()
	st := sess.Stats()
	var paused time.Duration
	start := time.Now()
	for !done(w, st.Round, time.Since(start)-paused) {
		before := st
		t := time.Now()
		st = sess.Step(1)
		d := time.Since(t)
		w.roundMS = append(w.roundMS, ms(d))
		w.agentRounds += float64(before.Size)
		rep.attempted++
		if traced {
			rs := sess.RoundStats()
			delta := rs.Sub(prevRS)
			prevRS = rs
			w.wallNS += float64(d.Nanoseconds())
			w.critNS += criticalPathNS(delta, parallel)
			if alterations(st) != alterations(before) {
				w.turnNS = append(w.turnNS, float64(delta.AdversaryNS))
			}
			if st.Round <= prefix {
				w.prefixWall += float64(d.Nanoseconds())
			}
		}
		if st.Round%epochLen == 0 {
			rep.check(st.InInterval, "round %d: population %d outside the admissible interval", st.Round, st.Size)
			if traced {
				t := time.Now()
				sim.Census()
				w.censusMS = append(w.censusMS, ms(time.Since(t)))
			}
		}
		if st.Round == prefix {
			t := time.Now()
			w.at = capturePrefix(sess)
			if traced {
				w.prefixPh = sess.RoundStats().Sub(startRS)
				m, _ := sim.MatchStats()
				w.prefixMatch = m.Sub(startMatch)
			}
			paused += time.Since(t)
		}
	}
	w.elapsed = time.Since(start) - paused
	if traced {
		w.phases = sess.RoundStats().Sub(startRS)
		m, _ := sim.MatchStats()
		w.matchDelta = m.Sub(startMatch)
	}
	return w
}

func alterations(st popstab.SessionStats) uint64 { return st.AdvInserted + st.AdvDeleted }

// criticalPathNS is one round's blocking phase time: compose overlaps
// matching on a pool of more than one worker and runs before it otherwise.
func criticalPathNS(d popstab.RoundStats, parallel bool) float64 {
	cm := d.ComposeNS + d.MatchNS
	if parallel {
		cm = max(d.ComposeNS, d.MatchNS)
	}
	return float64(d.AdversaryNS + cm + d.StepNS + d.KillFoldNS + d.ApplyNS)
}

func capturePrefix(sess *popstab.Session) *prefixState {
	st := sess.Stats()
	p := &prefixState{
		births:      st.Births,
		deaths:      st.Deaths,
		alterations: alterations(st),
		size:        st.Size,
		snapshot:    sess.Snapshot(),
	}
	if m, ok := sess.Sim().MatchStats(); ok {
		p.specWalks, p.serialWalks = m.SpecWalks, m.SerialWalks
	}
	return p
}

// setupEngine builds and warms the session setupRepeats times, keeping the
// last, and returns each set-up's wall time in seconds.
func setupEngine(spec popstab.Spec) (*popstab.Session, []float64, error) {
	var sess *popstab.Session
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if sess != nil {
			sess.Close()
			sess = nil
		}
		runtime.GC()
		start := time.Now()
		s, err := popstab.NewSessionFromSpec(spec)
		if err != nil {
			return nil, nil, err
		}
		s.Step(warmupRounds)
		times = append(times, time.Since(start).Seconds())
		sess = s
	}
	return sess, times, nil
}

func runEngine(wl engineWorkload, o options, rep *report) error {
	workers := runtime.NumCPU()
	spec := wl.spec(o.seed)
	spec.Workers = workers
	if err := describeSpec(rep, spec); err != nil {
		return err
	}
	rep.info["op"] = "one Session.Step(1) round"
	rep.info["workers"] = workers

	sess, setups, err := setupEngine(spec)
	if err != nil {
		return err
	}
	defer sess.Close()
	rep.set("setup_s", median(setups))

	window := time.Duration(o.seconds) * time.Second
	a := stepWindow(sess, wl.prefix, o.trace, workers > 1, rep,
		func(w *engineRun, round uint64, elapsed time.Duration) bool {
			return round >= wl.prefix && len(w.roundMS) >= minTailSamples && elapsed >= window
		})
	final := sess.Stats()
	rep.check(final.InInterval, "end of window: population %d outside the admissible interval", final.Size)
	rep.sampled("op_ms", len(a.roundMS))
	rep.set("agentsteps_per_s", a.agentRounds/a.elapsed.Seconds())
	rep.set("op_ms_p50", median(a.roundMS))
	rep.set("op_ms_p90", quantile(a.roundMS, tailQuantile))
	rep.set("ops_per_s", float64(len(a.roundMS))/a.elapsed.Seconds())
	rep.set("live_heap_mb", liveHeapMiB())
	runtime.KeepAlive(sess)

	at := a.at
	counts := map[string]string{
		"round":              fmt.Sprint(wl.prefix),
		"population.births":  fmt.Sprint(at.births),
		"population.deaths":  fmt.Sprint(at.deaths),
		"population.size":    fmt.Sprint(at.size),
		"adversary.alters":   fmt.Sprint(at.alterations),
		"match.spec_walks":   fmt.Sprint(at.specWalks),
		"match.serial_walks": fmt.Sprint(at.serialWalks),
		"snapshot.bytes":     fmt.Sprint(len(at.snapshot)),
		"snapshot.sha256":    sha256Hex(at.snapshot),
	}
	rep.exact(counts)
	if !o.trace {
		return nil
	}

	rounds := float64(a.phases.Rounds)
	rep.set("sim.adversary_ns", float64(a.phases.AdversaryNS)/rounds)
	rep.set("sim.compose_ns", float64(a.phases.ComposeNS)/rounds)
	rep.set("sim.match_ns", float64(a.phases.MatchNS)/rounds)
	rep.set("sim.step_ns", float64(a.phases.StepNS)/rounds)
	rep.set("sim.apply_ns", float64(a.phases.ApplyNS)/rounds)
	rep.set("sim.unattributed_ns", (a.wallNS-a.critNS)/rounds)
	rep.set("sim.allocs_per_round", float64(a.phases.AllocObjects)/rounds)
	rep.set("sim.alloc_bytes_per_round", float64(a.phases.AllocBytes)/rounds)
	m := a.matchDelta
	rep.set("match.bucket_ns", float64(m.BucketNS)/rounds)
	rep.set("match.scatter_ns", float64(m.ScatterNS)/rounds)
	rep.set("match.cand_ns", float64(m.CandNS)/rounds)
	rep.set("match.walk_ns", float64(m.WalkNS)/rounds)
	rep.set("match.conflict_rate", m.ConflictRate())
	rep.set("match.spec_walks", float64(at.specWalks))
	rep.set("match.serial_walks", float64(at.serialWalks))
	rep.set("adversary.turn_ns", median(a.turnNS))
	rep.set("adversary.alterations", float64(at.alterations))
	// A window too short to cross an epoch boundary times one census at
	// its end.
	if len(a.censusMS) == 0 {
		t := time.Now()
		sess.Sim().Census()
		a.censusMS = append(a.censusMS, ms(time.Since(t)))
	}
	rep.set("population.census_ms", median(a.censusMS))
	rep.set("population.births", float64(at.births))
	rep.set("population.deaths", float64(at.deaths))
	rep.sampled("adversary.turn_ns", len(a.turnNS))
	rep.sampled("population.census_ms", len(a.censusMS))

	if err := wireCosts(rep, spec, sess); err != nil {
		return err
	}
	if err := serialBaseline(rep, wl, spec, a); err != nil {
		return err
	}

	// Tracing overhead: the same session continues untraced for half a
	// window, and its throughput is set against the traced window's.
	c := stepWindow(sess, 0, false, workers > 1, rep, func(_ *engineRun, _ uint64, elapsed time.Duration) bool {
		return elapsed >= window/2
	})
	traced := a.agentRounds / a.elapsed.Seconds()
	untraced := c.agentRounds / c.elapsed.Seconds()
	rep.set("obs.trace_overhead", untraced/traced)
	return nil
}

// wireCosts times the snapshot codec outside the window: encode, and
// restore into a fresh session, each the median of setupRepeats tries. A
// restored session must re-encode to the same bytes.
func wireCosts(rep *report, spec popstab.Spec, sess *popstab.Session) error {
	size := float64(sess.Stats().Size)
	var blob []byte
	var enc, dec []float64
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		blob = sess.Snapshot()
		enc = append(enc, float64(time.Since(t).Nanoseconds())/size)
	}
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		r, err := popstab.RestoreSessionFromSpec(spec, blob)
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		dec = append(dec, float64(time.Since(t).Nanoseconds())/size)
		again := r.Snapshot()
		rep.check(string(again) == string(blob), "a restored session re-encodes to different bytes")
		r.Close()
	}
	rep.set("wire.snapshot_ns_per_agent", median(enc))
	rep.set("wire.restore_ns_per_agent", median(dec))
	rep.set("wire.snapshot_bytes_per_agent", float64(len(blob))/size)
	return nil
}

// serialBaseline repeats the traced window's rounds up to the prefix at
// Workers 1. The trajectory must be bit-identical; the phase times give
// the parallel speedups (1-worker ns / nproc-worker ns).
func serialBaseline(rep *report, wl engineWorkload, spec popstab.Spec, a *engineRun) error {
	spec.Workers = 1
	sess, err := popstab.NewSessionFromSpec(spec)
	if err != nil {
		return err
	}
	defer sess.Close()
	sess.Step(warmupRounds)
	b := stepWindow(sess, wl.prefix, true, false, rep, func(_ *engineRun, round uint64, _ time.Duration) bool {
		return round >= wl.prefix
	})
	rep.check(b.at.births == a.at.births && b.at.deaths == a.at.deaths && b.at.alterations == a.at.alterations,
		"Workers 1 diverges from Workers %d at round %d", runtime.NumCPU(), wl.prefix)
	rep.check(sha256Hex(b.at.snapshot) == sha256Hex(a.at.snapshot),
		"Workers 1 snapshot differs from Workers %d at round %d", runtime.NumCPU(), wl.prefix)

	p, s := a.prefixPh, b.prefixPh
	rep.set("sim.speedup.adversary", ratio(float64(s.AdversaryNS), float64(p.AdversaryNS)))
	rep.set("sim.speedup.compose", ratio(float64(s.ComposeNS), float64(p.ComposeNS)))
	rep.set("sim.speedup.match", ratio(float64(s.MatchNS), float64(p.MatchNS)))
	rep.set("sim.speedup.step", ratio(float64(s.StepNS), float64(p.StepNS)))
	rep.set("sim.speedup.apply", ratio(float64(s.ApplyNS), float64(p.ApplyNS)))
	rep.set("sim.speedup.round", ratio(b.prefixWall, a.prefixWall))
	pm, sm := a.prefixMatch, b.prefixMatch
	rep.set("match.speedup.bucket", ratio(float64(sm.BucketNS), float64(pm.BucketNS)))
	rep.set("match.speedup.scatter", ratio(float64(sm.ScatterNS), float64(pm.ScatterNS)))
	rep.set("match.speedup.cand", ratio(float64(sm.CandNS), float64(pm.CandNS)))
	rep.set("match.speedup.walk", ratio(float64(sm.WalkNS), float64(pm.WalkNS)))
	return nil
}

// liveHeapMiB is the heap still reachable after a forced collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
