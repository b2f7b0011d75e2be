package protocol

import (
	"testing"

	"popstab/internal/agent"
	"popstab/internal/params"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/wire"
)

// kernelCase runs one agent through the per-agent reference (Compose's
// sanitize, Decode, then Step on a stream seeded to (key, round, slot)) and
// through StepRange as a one-agent part at slot, matched with the message
// byte nbrMsg when hasNbr, and reports any difference in state, action,
// counters or use of the coin stream.
func kernelCase(t *testing.T, ref, kern *Protocol, s agent.State, nbrMsg uint8, hasNbr bool, round uint64, slot int) {
	t.Helper()
	const key = 0x5eed
	want := s
	var refSrc prng.Source
	refSrc.SeedCounter(key, round, uint64(slot))
	var m wire.Message
	if hasNbr {
		m = ref.Decode(nbrMsg)
	}
	wantAct := ref.Step(&want, m, hasNbr, &refSrc)

	got := []agent.State{s}
	// msgs[0] stands for the agent's own message; an unmatched agent must
	// not read it as its neighbor's.
	msgs := []uint8{0xff, nbrMsg}
	nbr := []int32{-1}
	if hasNbr {
		nbr[0] = 1
	}
	acts := []population.Action{population.ActSplit}
	untouched := prng.AtCounter(1, 2, 3)
	kernSrc := untouched
	kern.StepRange(got, nbr, msgs, acts, &kernSrc, key, round, slot)

	if got[0] != want || acts[0] != wantAct {
		t.Fatalf("state %v nbr %#x/%v: StepRange gave %v %v, Step %v %v", s, nbrMsg, hasNbr, got[0], acts[0], want, wantAct)
	}
	if *kern.Counters() != *ref.Counters() {
		t.Fatalf("state %v nbr %#x/%v: counters %+v, Step's %+v", s, nbrMsg, hasNbr, *kern.Counters(), *ref.Counters())
	}
	r := s.Round
	if r == 0 || int(r) == ref.p.T-1 || ref.noRoundCheck {
		if kernSrc != refSrc {
			t.Fatalf("state %v nbr %#x/%v: coin stream used differently from Step's", s, nbrMsg, hasNbr)
		}
		return
	}
	// A recruitment round draws no coin, so the kernel may leave the
	// stream unseeded.
	if refSrc != prng.AtCounter(key, round, uint64(slot)) || kernSrc != untouched {
		t.Fatalf("state %v nbr %#x/%v: a recruitment round touched the coin stream", s, nbrMsg, hasNbr)
	}
}

// TestStepRangeMatchesStep checks StepRange against Step exhaustively: every
// round of an epoch, both codecs, with and without the round check, every
// sanitized own state and every neighbor — unmatched, or any byte the
// codec's Compose can emit.
func TestStepRangeMatchesStep(t *testing.T) {
	p := testParams(t)
	var own []agent.State
	for d := 0; d <= p.HalfLogN; d++ {
		own = append(own, agent.State{ToRecruit: int8(d)})
		for c := uint8(0); c < 2; c++ {
			for _, rec := range []bool{false, true} {
				own = append(own, agent.State{Active: true, Color: c, Recruiting: rec, ToRecruit: int8(d)})
			}
		}
	}
	for _, codec := range []wire.Codec{wire.ThreeBit{}, wire.FourBit{}} {
		for _, noCheck := range []bool{false, true} {
			opts := []Option{WithCodec(codec)}
			if noCheck {
				opts = append(opts, WithoutRoundCheck())
			}
			ref, kern := MustNew(p, opts...), MustNew(p, opts...)
			emitted := map[uint8]bool{}
			for _, r := range []uint32{1, uint32(p.T - 1)} {
				for _, s := range own {
					s.Round = r
					emitted[ref.Compose(&s)] = true
				}
			}
			if len(emitted) < 6 {
				t.Fatalf("%s: Compose emitted only %d bytes", codec.Name(), len(emitted))
			}
			for r := 0; r < p.T; r++ {
				for i, s := range own {
					s.Round = uint32(r)
					slot := 7 + i
					round := uint64(3*p.T + r)
					kernelCase(t, ref, kern, s, 0, false, round, slot)
					for b := range emitted {
						kernelCase(t, ref, kern, s, b, true, round, slot)
					}
				}
			}
			if c := ref.Counters(); c.Recruits == 0 || c.RecruitMisses == 0 || c.EvalDeaths == 0 || c.EvalSplits == 0 ||
				(!noCheck && c.ConsistencyDeaths == 0) {
				t.Errorf("%s noRoundCheck=%v: an event never happened: %+v", codec.Name(), noCheck, *c)
			}
		}
	}
}

// TestComposeRangeMatchesCompose checks ComposeRange against Compose over
// unsanitized states: every round up to past T, any color byte, recruiting
// while inactive, any ToRecruit.
func TestComposeRangeMatchesCompose(t *testing.T) {
	p := testParams(t)
	for _, codec := range []wire.Codec{wire.ThreeBit{}, wire.FourBit{}} {
		pr := MustNew(p, WithCodec(codec))
		var states []agent.State
		for r := uint32(0); r < uint32(p.T+3); r++ {
			for flags := 0; flags < 4; flags++ {
				for _, c := range []uint8{0, 1, 2, 3, 255} {
					for _, d := range []int8{-128, -1, 0, 1, int8(p.HalfLogN), int8(p.HalfLogN + 1), 127} {
						states = append(states, agent.State{Round: r, Active: flags&1 != 0, Color: c,
							Recruiting: flags&2 != 0, ToRecruit: d})
					}
				}
			}
		}
		want := append([]agent.State(nil), states...)
		wantMsgs := make([]uint8, len(want))
		for i := range want {
			wantMsgs[i] = pr.Compose(&want[i])
		}
		msgs := make([]uint8, len(states))
		pr.ComposeRange(states, msgs)
		for i := range states {
			if states[i] != want[i] || msgs[i] != wantMsgs[i] {
				t.Fatalf("%s: agent %d: ComposeRange gave %v %#x, Compose %v %#x",
					codec.Name(), i, states[i], msgs[i], want[i], wantMsgs[i])
			}
		}
	}
}

// TestCodecTables checks that the encode and decode tables agree with the
// codec on every message and every byte.
func TestCodecTables(t *testing.T) {
	p := testParams(t)
	for _, codec := range []wire.Codec{wire.ThreeBit{}, wire.FourBit{}} {
		pr := MustNew(p, WithCodec(codec))
		for b := 0; b < 256; b++ {
			if got, want := pr.Decode(uint8(b)), codec.Decode(uint8(b)); got != want {
				t.Errorf("%s: Decode(%#x) = %+v, want %+v", codec.Name(), b, got, want)
			}
		}
		for r := uint32(0); r < uint32(p.T); r++ {
			for flags := 0; flags < 8; flags++ {
				s := agent.State{Round: r, Active: flags&1 != 0, Color: uint8(flags>>1) & 1, Recruiting: flags&4 != 0}
				pr.sanitize(&s)
				if got, want := pr.Compose(&s), codec.Encode(s.Message(p.T)); got != want {
					t.Errorf("%s: Compose(%v) = %#x, want %#x", codec.Name(), s, got, want)
				}
			}
		}
	}
}

// TestSanitizeReducesColor is the meeting that an unreduced color byte
// split: an active agent holding color 3 in the evaluation round sends
// color 1, and its color-1 partner sees equal colors. Reduced to its one-bit
// register, the agent sees equal colors too, so neither side dies.
func TestSanitizeReducesColor(t *testing.T) {
	p := testParams(t)
	pr := MustNew(p)
	for seed := uint64(0); seed < 64; seed++ {
		src := prng.New(seed)
		a := agent.State{Round: uint32(p.T - 1), Active: true, Color: 3}
		b := agent.State{Round: uint32(p.T - 1), Active: true, Color: 1}
		actA, actB := exchange(pr, &a, &b, src)
		if actA == population.ActDie || actB == population.ActDie {
			t.Fatalf("seed %d: color 3 met color 1 and the sides disagreed: %v / %v", seed, actA, actB)
		}
	}
	if c := pr.Counters(); c.EvalDeaths != 0 || c.EvalSplits == 0 {
		t.Errorf("counters %+v: want splits and no evaluation deaths", *c)
	}
	s := agent.State{Round: 3, Active: true, Color: 6}
	pr.Compose(&s)
	if s.Color != 0 {
		t.Errorf("color 6 sanitized to %d, want 0", s.Color)
	}
}

// FuzzStepKernel drives ComposeRange and StepRange over a small population
// of unsanitized states — any round, past T too, any color byte,
// recruiting while inactive, any ToRecruit — under a fuzzed pairing, global
// round, codec and round check, split into two parts at a fuzzed slot, and
// requires the messages, states, actions and all eight counters to equal
// the per-agent Compose, Decode and Step on a copy.
func FuzzStepKernel(f *testing.F) {
	p, err := params.Derive(4096, params.WithTinner(24))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw, pairs []byte, round uint64, split uint8, fourBit, noCheck bool) {
		// Four bytes an agent: round (two bytes, up to 65535 ≫ T), flags
		// and ToRecruit (-16…15), color.
		n := min(len(raw)/4, 64)
		if n == 0 {
			return
		}
		states := make([]agent.State, n)
		for i := range states {
			b := raw[4*i : 4*i+4]
			states[i] = agent.State{
				Round:      uint32(b[0]) | uint32(b[1])<<8,
				Active:     b[2]&1 != 0,
				Recruiting: b[2]&2 != 0,
				ToRecruit:  int8(b[2]) >> 3,
				Color:      b[3],
			}
		}
		// The pairing: agent i proposes pairs[i] mod n; a proposal between
		// two unmatched distinct agents matches them.
		nbr := make([]int32, n)
		for i := range nbr {
			nbr[i] = -1
		}
		for i := 0; i < n && i < len(pairs); i++ {
			j := int(pairs[i]) % n
			if j != i && nbr[i] < 0 && nbr[j] < 0 {
				nbr[i], nbr[j] = int32(j), int32(i)
			}
		}
		var opts []Option
		if fourBit {
			opts = append(opts, WithCodec(wire.FourBit{}))
		}
		if noCheck {
			opts = append(opts, WithoutRoundCheck())
		}
		ref, kern := MustNew(p, opts...), MustNew(p, opts...)
		const key, first = 77, 1000

		want := append([]agent.State(nil), states...)
		wantMsgs := make([]uint8, n)
		for i := range want {
			wantMsgs[i] = ref.Compose(&want[i])
		}
		wantActs := make([]population.Action, n)
		var src prng.Source
		for i := range want {
			src.SeedCounter(key, round, uint64(first+i))
			var m wire.Message
			if nbr[i] >= 0 {
				m = ref.Decode(wantMsgs[nbr[i]])
			}
			wantActs[i] = ref.Step(&want[i], m, nbr[i] >= 0, &src)
		}

		msgs := make([]uint8, n)
		h := int(split) % (n + 1)
		kern.ComposeRange(states[:h], msgs[:h])
		kern.ComposeRange(states[h:], msgs[h:])
		acts := make([]population.Action, n)
		kern.StepRange(states[:h], nbr[:h], msgs, acts[:h], &src, key, round, first)
		kern.StepRange(states[h:], nbr[h:], msgs, acts[h:], &src, key, round, first+h)
		for i := range states {
			if msgs[i] != wantMsgs[i] {
				t.Fatalf("agent %d: message %#x, Compose's %#x", i, msgs[i], wantMsgs[i])
			}
			if states[i] != want[i] || acts[i] != wantActs[i] {
				t.Fatalf("agent %d: %v %v, Step's %v %v", i, states[i], acts[i], want[i], wantActs[i])
			}
		}
		if *kern.Counters() != *ref.Counters() {
			t.Fatalf("counters %+v, Step's %+v", *kern.Counters(), *ref.Counters())
		}
	})
}

// kernelBenchPopulation is 2^18 agents in mid-recruitment round r, an
// eighth of them active (half of those recruiting), matched in random
// pairs covering seven eighths of the population.
func kernelBenchPopulation(b *testing.B, r uint32) (*Protocol, []agent.State, []int32, []uint8, []population.Action) {
	p, err := params.Derive(1<<18, params.WithTinner(36))
	if err != nil {
		b.Fatal(err)
	}
	pr := MustNew(p)
	n := p.N
	src := prng.New(3)
	states := make([]agent.State, n)
	for i := range states {
		s := &states[i]
		s.Round = r
		if src.Intn(8) == 0 {
			s.Active = true
			s.Color = src.Bit()
			s.Recruiting = src.Bool()
			s.ToRecruit = int8(src.Intn(p.HalfLogN + 1))
		}
	}
	nbr := make([]int32, n)
	perm := src.Perm(n)
	for i := range nbr {
		nbr[i] = -1
	}
	for k := 0; k+1 < n*7/8; k += 2 {
		a, c := perm[k], perm[k+1]
		nbr[a], nbr[c] = int32(c), int32(a)
	}
	return pr, states, nbr, make([]uint8, n), make([]population.Action, n)
}

func BenchmarkComposeRange(b *testing.B) {
	pr, states, _, msgs, _ := kernelBenchPopulation(b, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.ComposeRange(states, msgs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(states)), "ns/agent")
}

func BenchmarkStepRange(b *testing.B) {
	pr, states, nbr, msgs, actions := kernelBenchPopulation(b, 5)
	pr.ComposeRange(states, msgs)
	var src prng.Source
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range states {
			states[k].Round = 5
		}
		pr.StepRange(states, nbr, msgs, actions, &src, 1, uint64(i), 0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(states)), "ns/agent")
}
