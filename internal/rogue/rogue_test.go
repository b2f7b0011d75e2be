package rogue

import (
	"fmt"
	"runtime"
	"testing"

	"popstab/internal/adversary"
	"popstab/internal/match"
	"popstab/internal/params"
	"popstab/internal/population"
	"popstab/internal/sim"
)

func fastParams(t testing.TB) params.Params {
	t.Helper()
	p, err := params.Derive(4096, params.WithTinner(24))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	p := fastParams(t)
	cases := []struct {
		sim   sim.Config
		rogue Config
	}{
		{sim.Config{Params: params.Params{}}, Config{ReplicateEvery: 4}},
		{sim.Config{Params: p}, Config{ReplicateEvery: 0}},
		{sim.Config{Params: p}, Config{ReplicateEvery: 4, DetectProb: 1.5}},
		{sim.Config{Params: p}, Config{ReplicateEvery: 4, DetectProb: -0.1}},
		{sim.Config{Params: p}, Config{ReplicateEvery: 4, InitialRogues: -1}},
		{sim.Config{Params: p}, Config{ReplicateEvery: 4, RoguesPerEpoch: -1}},
		{sim.Config{Params: p, InitialSize: -1}, Config{ReplicateEvery: 4}},
		{sim.Config{Params: p, K: -1}, Config{ReplicateEvery: 4}},
	}
	for i, tc := range cases {
		if _, err := New(tc.sim, tc.rogue); err == nil {
			t.Errorf("case %d accepted: %+v %+v", i, tc.sim, tc.rogue)
		}
	}
}

func TestInitialComposition(t *testing.T) {
	p := fastParams(t)
	e, err := New(sim.Config{Params: p, Seed: 1},
		Config{ReplicateEvery: 4, DetectProb: 1, InitialRogues: 32})
	if err != nil {
		t.Fatal(err)
	}
	honest, rogues := e.Counts()
	if honest != p.N || rogues != 32 {
		t.Fatalf("composition %d/%d", honest, rogues)
	}
	if e.Size() != p.N+32 {
		t.Fatalf("size %d", e.Size())
	}
}

// TestUnboundedRogueTakesOver reproduces the paper's impossibility argument:
// with no replication-rate bound (R = 1) and no detection, "malicious agents
// would quickly replicate themselves out of control".
func TestUnboundedRogueTakesOver(t *testing.T) {
	p := fastParams(t)
	e, err := New(sim.Config{Params: p, Seed: 2},
		Config{ReplicateEvery: 1, DetectProb: 0, InitialRogues: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12 && e.Size() < 4*p.N; i++ {
		e.RunRound()
	}
	_, rogues := e.Counts()
	if rogues < 3*p.N {
		t.Errorf("unbounded rogues reached only %d after doubling rounds", rogues)
	}
}

// TestContainmentWithDetection is the extension's positive claim: with the
// rate bound R > 1/(γ·h) and exact detection, an initial rogue cohort is
// culled and the honest population stays stable.
func TestContainmentWithDetection(t *testing.T) {
	p := fastParams(t)
	// γ = 0.25, h ≈ 1 ⇒ cull rate ≈ 0.25/round; R = 16 replicates at
	// 0.0625/round — well under the cull rate.
	e, err := New(sim.Config{Params: p, Seed: 3},
		Config{ReplicateEvery: 16, DetectProb: 1, InitialRogues: 64})
	if err != nil {
		t.Fatal(err)
	}
	for ep := 0; ep < 3; ep++ {
		e.RunEpoch()
	}
	honest, rogues := e.Counts()
	if rogues > 8 {
		t.Errorf("rogues not contained: %d remain", rogues)
	}
	if honest < p.N/2 || honest > 2*p.N {
		t.Errorf("honest population destabilized: %d", honest)
	}
	if e.Stats().RogueKills == 0 {
		t.Error("no kills recorded")
	}
}

// TestFastRogueWinsDespiteDetection: below the threshold (R too small) the
// rogue birth rate outruns the cull rate even with perfect detection.
func TestFastRogueWinsDespiteDetection(t *testing.T) {
	p := fastParams(t)
	// R = 2 ⇒ growth 0.5/round vs cull ≈ γ = 0.25/round.
	e, err := New(sim.Config{Params: p, Seed: 4},
		Config{ReplicateEvery: 2, DetectProb: 1, InitialRogues: 64})
	if err != nil {
		t.Fatal(err)
	}
	start := 64
	for i := 0; i < 60 && e.Size() < 4*p.N; i++ {
		e.RunRound()
	}
	_, rogues := e.Counts()
	if rogues <= start*4 {
		t.Errorf("fast rogues did not grow: %d", rogues)
	}
}

// TestContinuousInfiltrationSteadyState: rogues inserted every epoch are
// culled continuously; the rogue population stays near insertion/cull
// balance rather than accumulating.
func TestContinuousInfiltrationSteadyState(t *testing.T) {
	p := fastParams(t)
	e, err := New(sim.Config{Params: p, Seed: 5},
		Config{ReplicateEvery: 16, DetectProb: 1, RoguesPerEpoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	maxRogues := 0
	for ep := 0; ep < 5; ep++ {
		e.RunEpoch()
		if _, r := e.Counts(); r > maxRogues {
			maxRogues = r
		}
	}
	// 8 inserted per epoch, lifetime ≈ 1/γ = 4 rounds (plus replication
	// slack): steady state well below one epoch's insertion.
	if maxRogues > 64 {
		t.Errorf("infiltration accumulated to %d rogues", maxRogues)
	}
	honest, _ := e.Counts()
	if honest < p.N/2 || honest > 2*p.N {
		t.Errorf("honest population destabilized: %d", honest)
	}
}

// TestImperfectDetectionShiftsThreshold: halving DetectProb halves the cull
// rate, so a replication rate contained at p=1 can win at low p.
func TestImperfectDetectionShiftsThreshold(t *testing.T) {
	p := fastParams(t)
	const r = 8 // growth 0.125/round; cull at DetectProb=1 is ≈0.25, at 0.1 is ≈0.025
	contained := func(detect float64) bool {
		e, err := New(sim.Config{Params: p, Seed: 6},
			Config{ReplicateEvery: r, DetectProb: detect, InitialRogues: 64})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2*p.T && e.Size() < 3*p.N; i++ {
			e.RunRound()
		}
		_, rogues := e.Counts()
		return rogues < 64
	}
	if !contained(1.0) {
		t.Error("R=8 not contained at perfect detection")
	}
	if contained(0.1) {
		t.Error("R=8 contained even at 10% detection")
	}
}

// TestHonestProtocolUnperturbed: with zero rogues the extension engine must
// leave the honest dynamics stable (sanity: the guard path is inert).
func TestHonestProtocolUnperturbed(t *testing.T) {
	p := fastParams(t)
	e, err := New(sim.Config{Params: p, Seed: 7}, Config{ReplicateEvery: 8, DetectProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	for ep := 0; ep < 5; ep++ {
		e.RunEpoch()
	}
	honest, rogues := e.Counts()
	if rogues != 0 {
		t.Errorf("rogues appeared from nowhere: %d", rogues)
	}
	if honest < p.N*3/4 || honest > p.N*5/4 {
		t.Errorf("honest population drifted to %d", honest)
	}
	if e.Stats().RogueKills != 0 || e.Stats().FailedDetections != 0 {
		t.Errorf("spurious guard events: %+v", e.Stats())
	}
}

func BenchmarkRoundWithRogues(b *testing.B) {
	p, err := params.Derive(4096, params.WithTinner(24))
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(sim.Config{Params: p, Seed: 1},
		Config{ReplicateEvery: 16, DetectProb: 1, InitialRogues: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
}

func TestGlobalRoundAdvances(t *testing.T) {
	p := fastParams(t)
	e, err := New(sim.Config{Params: p, Seed: 8}, Config{ReplicateEvery: 8, DetectProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.RunEpoch()
	if e.GlobalRound() != uint64(p.T) {
		t.Errorf("global round %d", e.GlobalRound())
	}
}

// TestParallelDeterminism asserts the extended engine's trajectory
// (population size, honest/rogue counts, stats) is bit-identical across
// Workers ∈ {1, 2, NumCPU}, mirroring internal/sim's golden determinism
// guarantee — now inherited rather than re-implemented, since the rogue
// path is a Program over the unified engine.
func TestParallelDeterminism(t *testing.T) {
	run := func(workers int) ([]int, Stats) {
		e, err := New(sim.Config{Params: fastParams(t), Seed: 77, Workers: workers},
			Config{ReplicateEvery: 4, DetectProb: 0.8, InitialRogues: 16, RoguesPerEpoch: 2})
		if err != nil {
			t.Fatal(err)
		}
		var sizes []int
		for i := 0; i < 200; i++ {
			e.RunRound()
			h, r := e.Counts()
			sizes = append(sizes, e.Size(), h, r)
		}
		return sizes, e.Stats()
	}
	wantSizes, wantStats := run(1)
	for _, w := range []int{2, 8, runtime.NumCPU()} {
		gotSizes, gotStats := run(w)
		for i := range wantSizes {
			if gotSizes[i] != wantSizes[i] {
				t.Fatalf("workers=%d: trajectory diverged at sample %d: %d != %d",
					w, i, gotSizes[i], wantSizes[i])
			}
		}
		if gotStats != wantStats {
			t.Fatalf("workers=%d: stats diverged: %+v != %+v", w, gotStats, wantStats)
		}
	}
}

// TestGoldenTrajectory pins the exact trajectory of a fixed rogue
// configuration, the extension twin of internal/sim's golden test: any
// unintended semantic change to the overlay, the victim-side kill, the
// infiltration hook, or the engine's stream derivation changes this number.
// If a change is INTENDED, rerun with -v and update the constant.
func TestGoldenTrajectory(t *testing.T) {
	e, err := New(sim.Config{Params: fastParams(t), Seed: 424242, Workers: 1},
		Config{ReplicateEvery: 6, DetectProb: 0.9, InitialRogues: 32, RoguesPerEpoch: 4})
	if err != nil {
		t.Fatal(err)
	}
	var checksum uint64
	for i := 0; i < 300; i++ {
		rep := e.RunRound()
		h, r := e.Counts()
		checksum = checksum*31 + uint64(rep.SizeAfter)
		checksum = checksum*31 + uint64(h)*2 + uint64(r)*3 + uint64(rep.Kills)*5
	}
	const want = uint64(17192188877167158431)
	if checksum != want {
		t.Errorf("trajectory checksum changed: got %d, want %d\n"+
			"(if this change is intentional, update the golden value)", checksum, want)
	}
}

// TestKillsReportedPerRound asserts detection kills surface in the unified
// engine's RoundReport, the sum of the step parts' removal counts, and agree
// round by round with the overlay's atomic counters at every worker count.
func TestKillsReportedPerRound(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := fastParams(t)
			e, err := New(sim.Config{Params: p, Seed: 11, Workers: workers},
				Config{ReplicateEvery: 16, DetectProb: 1, InitialRogues: 64})
			if err != nil {
				t.Fatal(err)
			}
			totalKills := 0
			for i := 0; i < 40; i++ {
				before := e.Stats().RogueKills
				rep := e.RunRound()
				if rep.Kills > rep.Deaths {
					t.Fatalf("round %d: kills %d exceed deaths %d", i, rep.Kills, rep.Deaths)
				}
				if delta := e.Stats().RogueKills - before; uint64(rep.Kills) != delta {
					t.Fatalf("round %d: report kills %d, RogueKills grew by %d", i, rep.Kills, delta)
				}
				totalKills += rep.Kills
			}
			if totalKills == 0 {
				t.Error("no kills recorded against 64 rogues at perfect detection")
			}
		})
	}
}

// TestDetectedRogueDiesBeforeSplitting pins the removal semantics: a rogue
// whose cooldown expires in the round it is detected writes its own death
// instead of its split, the removal counts in both Kills and Deaths, and
// RogueSplits still counts the replication the rogue attempted.
func TestDetectedRogueDiesBeforeSplitting(t *testing.T) {
	e, err := New(sim.Config{
		Params:      fastParams(t),
		Matcher:     match.FromScheduler(match.Full{}),
		InitialSize: 1,
		Seed:        1,
		Workers:     1,
	}, Config{ReplicateEvery: 1, DetectProb: 1, InitialRogues: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := e.RunRound()
	if rep.Kills != 1 || rep.Deaths != 1 || rep.Births != 0 || rep.SizeAfter != 1 {
		t.Fatalf("kills=%d deaths=%d births=%d size=%d, want 1/1/0/1: %+v",
			rep.Kills, rep.Deaths, rep.Births, rep.SizeAfter, rep)
	}
	if honest, rogues := e.Counts(); honest != 1 || rogues != 0 {
		t.Fatalf("composition %d/%d, want 1/0", honest, rogues)
	}
	if st := e.Stats(); st.RogueKills != 1 || st.RogueSplits != 1 || st.FailedDetections != 0 {
		t.Fatalf("stats %+v, want 1 kill, 1 split, 0 failed detections", st)
	}
}

// TestRogueWithStateAdversary composes the program-adversary (rogue
// infiltration) with the base model's state-adversary — unreachable before
// the unification — and asserts budget accounting and containment both
// hold.
func TestRogueWithStateAdversary(t *testing.T) {
	p := fastParams(t)
	paced := adversary.NewPaced(adversary.PerEpoch(p.T, p.MaxTolerableK(), 1),
		adversary.NewGreedy())
	e, err := New(sim.Config{Params: p, Adversary: paced, K: 1, Seed: 13, Workers: 1},
		Config{ReplicateEvery: 16, DetectProb: 1, InitialRogues: 32})
	if err != nil {
		t.Fatal(err)
	}
	altered := 0
	for ep := 0; ep < 3; ep++ {
		rep := e.RunEpoch()
		altered += rep.AdvInserted + rep.AdvDeleted
	}
	if altered == 0 {
		t.Error("state adversary never acted on the rogue engine")
	}
	honest, rogues := e.Counts()
	if rogues > 8 {
		t.Errorf("rogues not contained under composed adversary: %d remain", rogues)
	}
	if honest < p.N/2 || honest > 2*p.N {
		t.Errorf("honest population destabilized: %d", honest)
	}
}

// TestRogueOnTorus runs the malicious-program extension under geometric
// communication — the cross-product scenario the paper leaves open. Under
// local matching a rogue patch protects its interior (rogues matched with
// rogues trigger no detection), so containment needs a visibly longer
// replication period than the well-mixed threshold R* ≈ 2.41; here we just
// pin that the combination runs, stays deterministic across worker counts,
// and that kills still happen at the patch boundary.
func TestRogueOnTorus(t *testing.T) {
	p := fastParams(t)
	run := func(workers int) ([]int, Stats) {
		tor, err := match.NewTorus(1.0 / 64)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(sim.Config{Params: p, Matcher: tor, Seed: 21, Workers: workers},
			Config{ReplicateEvery: 8, DetectProb: 1, InitialRogues: 64})
		if err != nil {
			t.Fatal(err)
		}
		var sizes []int
		for i := 0; i < 150 && e.Size() < 4*p.N; i++ {
			e.RunRound()
			h, r := e.Counts()
			sizes = append(sizes, e.Size(), h, r)
		}
		return sizes, e.Stats()
	}
	wantSizes, wantStats := run(1)
	if wantStats.RogueKills == 0 {
		t.Error("no boundary kills on the torus")
	}
	for _, w := range []int{2, runtime.NumCPU()} {
		gotSizes, gotStats := run(w)
		if len(gotSizes) != len(wantSizes) {
			t.Fatalf("workers=%d: trajectory length %d != %d", w, len(gotSizes), len(wantSizes))
		}
		for i := range wantSizes {
			if gotSizes[i] != wantSizes[i] {
				t.Fatalf("workers=%d: torus trajectory diverged at sample %d: %d != %d",
					w, i, gotSizes[i], wantSizes[i])
			}
		}
		if gotStats != wantStats {
			t.Fatalf("workers=%d: stats diverged: %+v != %+v", w, gotStats, wantStats)
		}
	}
}

// clusterRing builds a clustered-infiltration engine on a fresh ring
// matcher and returns both.
func clusterRing(t *testing.T, p params.Params, spec ClusterSpec, initial, perEpoch int, seed uint64) (*Engine, *match.Ring) {
	t.Helper()
	ring, err := match.NewRing(1.0 / float64(p.N))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sim.Config{Params: p, Matcher: ring, Seed: seed, Workers: 1},
		Config{ReplicateEvery: 3, DetectProb: 1, InitialRogues: initial, RoguesPerEpoch: perEpoch, Cluster: &spec})
	if err != nil {
		t.Fatal(err)
	}
	return eng, ring
}

// TestClusterPlacesInitialCohort pins the clustered seeding: every initial
// rogue sits inside the patch even though the cohort was inserted before the
// matcher bound its position side-array, and the honest population stays
// uniformly spread (most of it outside a small patch).
func TestClusterPlacesInitialCohort(t *testing.T) {
	p := fastParams(t)
	spec := ClusterSpec{Center: population.Point{X: 0.25}, Radius: 0.01}
	eng, ring := clusterRing(t, p, spec, 64, 0, 5)
	pos := ring.Positions()
	meta := eng.Overlay().meta
	if pos.Len() != len(meta) {
		t.Fatalf("positions %d vs meta %d", pos.Len(), len(meta))
	}
	inPatch, rogues, honestIn := 0, 0, 0
	r2 := spec.Radius * spec.Radius
	for i := range meta {
		inside := match.RingDist2(pos.At(i), spec.Center) <= r2
		if meta[i].prog == Rogue {
			rogues++
			if inside {
				inPatch++
			}
		} else if inside {
			honestIn++
		}
	}
	if rogues != 64 || inPatch != 64 {
		t.Errorf("rogues %d, in patch %d; want all 64 clustered", rogues, inPatch)
	}
	// A 0.02-long arc holds ~2% of the 4096 honest agents in expectation.
	if honestIn > 200 {
		t.Errorf("%d honest agents inside the tiny patch; placement leaked", honestIn)
	}
}

// TestClusterPlacesInfiltration pins the per-epoch path: rogues inserted by
// StartRound land inside the patch too (via the placement queue, not the
// oblivious Place seam).
func TestClusterPlacesInfiltration(t *testing.T) {
	p := fastParams(t)
	spec := ClusterSpec{Center: population.Point{X: 0.75}, Radius: 0.02}
	eng, ring := clusterRing(t, p, spec, 0, 8, 6)
	eng.RunRound() // round 0 is an epoch boundary: 8 rogues arrive
	pos := ring.Positions()
	meta := eng.Overlay().meta
	r2 := spec.Radius * spec.Radius
	rogues, inPatch := 0, 0
	for i := range meta {
		if meta[i].prog != Rogue {
			continue
		}
		rogues++
		if match.RingDist2(pos.At(i), spec.Center) <= r2 {
			inPatch++
		}
	}
	if rogues == 0 || rogues != inPatch {
		t.Errorf("rogues %d, in patch %d; want all infiltrators clustered", rogues, inPatch)
	}
}

// TestClusterValidation rejects clustered infiltration without a spatial
// matcher and with a negative radius.
func TestClusterValidation(t *testing.T) {
	p := fastParams(t)
	if _, err := New(sim.Config{Params: p},
		Config{ReplicateEvery: 3, DetectProb: 1, InitialRogues: 4, Cluster: &ClusterSpec{Radius: 0.1}}); err == nil {
		t.Error("Cluster accepted without a spatial Matcher")
	}
	ring, err := match.NewRing(1.0 / float64(p.N))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(sim.Config{Params: p, Matcher: ring},
		Config{ReplicateEvery: 3, DetectProb: 1, InitialRogues: 4, Cluster: &ClusterSpec{Radius: -0.1}}); err == nil {
		t.Error("negative cluster radius accepted")
	}
}

// TestClusterDeterministicAcrossWorkers extends the golden determinism
// guarantee to clustered infiltration: the cluster placement stream is
// serial and seed-derived, so worker counts cannot perturb it.
func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	p := fastParams(t)
	spec := ClusterSpec{Center: population.Point{X: 0.5}, Radius: 0.02}
	run := func(workers int) []int {
		ring, err := match.NewRing(1.0 / float64(p.N))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(sim.Config{Params: p, Matcher: ring, Seed: 9, Workers: workers},
			Config{ReplicateEvery: 2, DetectProb: 1, InitialRogues: 32, RoguesPerEpoch: 4, Cluster: &spec})
		if err != nil {
			t.Fatal(err)
		}
		// Short horizon with a size guard: a shielded rogue patch grows
		// exponentially, and this test is about determinism, not outcome.
		var sizes []int
		for i := 0; i < 32 && eng.Size() < 2*p.N; i++ {
			eng.RunRound()
			h, r := eng.Counts()
			sizes = append(sizes, h, r)
		}
		return sizes
	}
	want := run(1)
	for _, w := range []int{2, runtime.NumCPU()} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d diverged at sample %d: %d != %d", w, i, got[i], want[i])
			}
		}
	}
}
