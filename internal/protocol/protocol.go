// Package protocol implements the population stability protocol of
// Goldwasser, Ostrovsky, Scafuro and Sealfon (PODC 2018), Algorithms 1–7.
//
// Each agent runs MainProtocolStep every round:
//
//  1. exchange messages with the matched neighbor, if any (Algorithm 2);
//  2. check round consistency — die on an inEvalPhase mismatch (Algorithm 7);
//  3. dispatch on the round within the epoch: leader selection in round 0
//     (Algorithm 3), recruitment in rounds 1..T−2 (Algorithm 5), and the
//     evaluation phase in round T−1 (Algorithm 6);
//  4. advance the round counter modulo T.
//
// The protocol is a pure per-agent state machine: Step mutates exactly one
// agent's state and reports whether that agent keeps, dies, or splits. The
// simulation engine (internal/sim) owns message delivery and population
// mutation, mirroring the model's separation between agents and scheduler.
//
// The engine drives the protocol one pool part at a time through
// ComposeRange and StepRange (it is a sim.Program), which act
// exactly as Compose, Decode and Step would agent by agent. Messages go
// through two small tables built from the codec by New. Only the
// leader-selection and evaluation rounds draw coins, so StepRange hands only
// those rounds to Step and runs the recruitment rounds inline. The
// per-agent methods stay the reference the range methods are tested against
// (TestStepRangeMatchesStep, FuzzStepKernel), and they are what wrapped
// programs call.
//
// Two clarifications of the paper's pseudocode are applied (see DESIGN.md §2):
// the subphase-boundary re-arm of the recruiting flag applies only to active
// agents, and daughters of a split inherit the parent's post-reset state.
package protocol

import (
	"fmt"
	"sync/atomic"

	"popstab/internal/agent"
	"popstab/internal/params"
	"popstab/internal/population"
	"popstab/internal/prng"
	"popstab/internal/wire"
)

// Counters accumulates per-run event counts for analysis and experiments.
// The protocol increments them atomically (Step may run concurrently across
// agents under the parallel round engine); callers read and reset them
// between measurement windows, outside any running round. They are not part
// of any agent's state. Totals are deterministic across worker counts
// because per-agent events are — only the increment order varies.
type Counters struct {
	// Leaders counts successful leader-selection coin flips.
	Leaders uint64
	// LeadersByColor splits Leaders by chosen color.
	LeadersByColor [2]uint64
	// Recruits counts activations during recruitment.
	Recruits uint64
	// EvalSplits counts splits in evaluation phases.
	EvalSplits uint64
	// EvalDeaths counts deaths from color mismatches in evaluation phases.
	EvalDeaths uint64
	// ConsistencyDeaths counts deaths from the round-consistency check.
	ConsistencyDeaths uint64
	// RecruitMisses counts subphase boundaries at which an active agent had
	// not recruited during the elapsed subphase (its recruiting flag was
	// still set when re-armed). Lemma 5 predicts these are rare.
	RecruitMisses uint64
}

// Reset zeroes all counters.
func (c *Counters) Reset() { *c = Counters{} }

// String renders the counters compactly.
func (c *Counters) String() string {
	return fmt.Sprintf("leaders=%d (c0=%d c1=%d) recruits=%d splits=%d evalDeaths=%d consistencyDeaths=%d misses=%d",
		c.Leaders, c.LeadersByColor[0], c.LeadersByColor[1],
		c.Recruits, c.EvalSplits, c.EvalDeaths, c.ConsistencyDeaths, c.RecruitMisses)
}

// Protocol is the population stability protocol configured for a target size
// N. It is safe to share across agents (all per-agent state lives in
// agent.State) and across the engine's step workers: the configuration is
// immutable after New and the counters are incremented atomically.
type Protocol struct {
	p            params.Params
	codec        wire.Codec
	stats        Counters
	noRoundCheck bool
	// rounds holds the per-round constants recruitment reads, indexed by
	// the round within the epoch; sanitize keeps every agent's round < T.
	rounds []roundConsts
	// enc maps a message's four logical bits (msgBits) to its wire byte
	// and dec a wire byte back to the bits, both filled from codec by New,
	// so composing and decoding cost a table read, not a codec call.
	enc [16]uint8
	dec [256]uint8
}

// The logical bits of a message in enc's index and dec's entries, laid out
// as wire.FourBit lays out its byte.
const (
	bitEval uint8 = 1 << iota
	bitActive
	bitColor
	bitRecruiting
)

// msgBits packs m into its logical bits; the color keeps its one bit.
func msgBits(m wire.Message) uint8 {
	b := (m.Color & 1) << 2
	if m.InEvalPhase {
		b |= bitEval
	}
	if m.Active {
		b |= bitActive
	}
	if m.Recruiting {
		b |= bitRecruiting
	}
	return b
}

// bitsMsg is the inverse of msgBits.
func bitsMsg(b uint8) wire.Message {
	return wire.Message{
		InEvalPhase: b&bitEval != 0,
		Active:      b&bitActive != 0,
		Color:       (b >> 2) & 1,
		Recruiting:  b&bitRecruiting != 0,
	}
}

// roundConsts are the recruitment constants of one round within the epoch,
// precomputed by New so the per-agent step does no division.
type roundConsts struct {
	// boundary is Params.IsSubphaseBoundary.
	boundary bool
	// depth is Params.RecruitDepthAt clamped at 0.
	depth int8
}

// Option customizes New.
type Option func(*Protocol)

// WithCodec selects the message codec (default wire.ThreeBit).
func WithCodec(c wire.Codec) Option {
	return func(pr *Protocol) { pr.codec = c }
}

// WithoutRoundCheck disables the CheckRoundConsistency subroutine
// (Algorithm 7). It exists solely for the A1 ablation, which shows the
// desynchronization attack succeeding when the check is removed.
func WithoutRoundCheck() Option {
	return func(pr *Protocol) { pr.noRoundCheck = true }
}

// New constructs the protocol for the given parameters.
func New(p params.Params, opts ...Option) (*Protocol, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pr := &Protocol{p: p, codec: wire.ThreeBit{}, rounds: make([]roundConsts, p.T)}
	for r := range pr.rounds {
		pr.rounds[r] = roundConsts{
			boundary: p.IsSubphaseBoundary(r),
			depth:    int8(max(p.RecruitDepthAt(r), 0)),
		}
	}
	for _, opt := range opts {
		opt(pr)
	}
	for b := range pr.enc {
		pr.enc[b] = pr.codec.Encode(bitsMsg(uint8(b)))
	}
	for b := range pr.dec {
		pr.dec[b] = msgBits(pr.codec.Decode(uint8(b)))
	}
	return pr, nil
}

// MustNew is New for static configurations known to be valid; it panics on
// error and is intended for tests and examples.
func MustNew(p params.Params, opts ...Option) *Protocol {
	pr, err := New(p, opts...)
	if err != nil {
		panic(err)
	}
	return pr
}

// EncodeState appends the accumulated event counters to a snapshot
// (internal/sim's StateCodec). The counters are the protocol's only mutable
// state — the configuration is immutable — so capturing them makes a
// restored run's observable statistics, not just its trajectory, continue
// exactly. Serial phases only (no round may be in flight).
func (pr *Protocol) EncodeState(e *wire.Enc) {
	c := &pr.stats
	for _, v := range []uint64{
		c.Leaders, c.LeadersByColor[0], c.LeadersByColor[1], c.Recruits,
		c.EvalSplits, c.EvalDeaths, c.ConsistencyDeaths, c.RecruitMisses,
	} {
		e.U64(v)
	}
}

// DecodeState reinstates counters captured by EncodeState.
func (pr *Protocol) DecodeState(d *wire.Dec) error {
	c := &pr.stats
	for _, p := range []*uint64{
		&c.Leaders, &c.LeadersByColor[0], &c.LeadersByColor[1], &c.Recruits,
		&c.EvalSplits, &c.EvalDeaths, &c.ConsistencyDeaths, &c.RecruitMisses,
	} {
		*p = d.U64()
	}
	return d.Err()
}

// Params returns the protocol's parameter set.
func (pr *Protocol) Params() params.Params { return pr.p }

// Counters returns the accumulated event counters.
func (pr *Protocol) Counters() *Counters { return &pr.stats }

// EpochLen reports the epoch length T in rounds.
func (pr *Protocol) EpochLen() int { return pr.p.T }

// Codec reports the message codec in use.
func (pr *Protocol) Codec() wire.Codec { return pr.codec }

// Compose encodes the message agent s sends this round (Algorithm 2).
func (pr *Protocol) Compose(s *agent.State) uint8 {
	pr.sanitize(s)
	return pr.enc[stateBits(s, uint32(pr.p.T-1))]
}

// Decode decodes a received message byte.
func (pr *Protocol) Decode(b uint8) wire.Message { return bitsMsg(pr.dec[b]) }

// stateBits is msgBits of the message a sanitized agent s sends in a
// protocol whose evaluation round is last, read straight from its state.
func stateBits(s *agent.State, last uint32) uint8 {
	return (bit(s.Round == last) | bit(s.Active)<<1 | s.Color<<2 | bit(s.Recruiting)<<3) & 15
}

// ComposeRange is Compose for every agent of states, writing agent k's
// message to msgs[k]; the engine calls it once per part of its compose
// phase. Compose does not depend on the slot, so first is unused.
func (pr *Protocol) ComposeRange(_ int, states []agent.State, msgs []uint8) {
	msgs = msgs[:len(states)]
	enc, last := &pr.enc, uint32(pr.p.T-1)
	t, half := uint32(pr.p.T), uint8(pr.p.HalfLogN)
	for k := range states {
		// On a copy: the fields stay in registers instead of being
		// reloaded through the pointer after every store.
		st := states[k]
		if !canonical(&st, t, half) {
			pr.repair(&states[k])
			st = states[k]
		}
		msgs[k] = enc[stateBits(&st, last)]
	}
}

// StepRange is Step for every agent of states, the part of the population
// that starts at slot first: agent k is slot first+k, its matched neighbor
// is slot nbr[k] (negative when unmatched), whose message is msgs[nbr[k]],
// and its fate goes to actions[k]. Its coins come from src reseeded to the
// counter stream (key, round, slot), exactly as the engine seeds a Step.
//
// Only the leader-selection and evaluation rounds draw coins, so only they
// (and every round under WithoutRoundCheck) go through Step, in a second
// pass over the part. The first pass, recruitRange, runs the recruitment
// rounds inline. The result equals Step's, agent by agent, coin by coin
// (TestStepRangeMatchesStep). No agent removes another, so it reports 0.
func (pr *Protocol) StepRange(first int, states []agent.State, nbr []int32, msgs []uint8, actions []population.Action, src *prng.Source, key, round uint64) int {
	nbr = nbr[:len(states)]
	actions = actions[:len(states)]
	all := pr.noRoundCheck
	if !all && !pr.recruitRange(states, nbr, msgs, actions) {
		return 0
	}
	for k := range states {
		if !all && actions[k] != actCoin {
			continue
		}
		j := nbr[k]
		var m wire.Message
		if j >= 0 {
			m = pr.Decode(msgs[j])
		}
		src.SeedCounter(key, round, uint64(first+k))
		actions[k] = pr.Step(&states[k], m, j >= 0, src)
	}
	return 0
}

// actCoin marks in the action array an agent recruitRange left to Step.
const actCoin population.Action = 0xff

// recruitRange sanitizes every agent of the part and steps those in a
// recruitment round: Algorithm 7's check and Algorithm 5, as Step runs
// them. It marks the others actCoin and reports whether there were any.
// Its counter events reach the shared counters in one atomic add per
// counter per call. It makes no call but to repair, so that the loop's
// values stay in registers.
func (pr *Protocol) recruitRange(states []agent.State, nbr []int32, msgs []uint8, actions []population.Action) (coins bool) {
	nbr = nbr[:len(states)]
	actions = actions[:len(states)]
	dec, rounds := &pr.dec, pr.rounds
	last := uint32(pr.p.T - 1)
	t, half := uint32(pr.p.T), uint8(pr.p.HalfLogN)
	var deaths, recruits, misses uint64
	for k := range states {
		s := &states[k]
		st := *s // a copy, as in ComposeRange
		if !canonical(&st, t, half) {
			pr.repair(s)
			st = *s
		}
		r := st.Round
		if r == 0 || r == last {
			actions[k] = actCoin
			coins = true
			continue
		}
		// Without a branch on the matching, which is random: an unmatched
		// agent (j < 0, so none is all ones) reads msgs[0] and keeps m = 0.
		j := nbr[k]
		none := uint8(j >> 31)
		m := dec[msgs[j&^(j>>31)]] &^ none
		// Algorithm 7: s is not in its evaluation round, so an evaluating
		// neighbor disagrees.
		if m&bitEval != 0 {
			deaths++
			actions[k] = population.ActDie
			continue
		}
		// Algorithm 5, as recruitmentStep runs it.
		rc := rounds[r]
		active, color, recruiting, toRecruit := st.Active, st.Color, st.Recruiting, st.ToRecruit
		switch {
		case recruiting && none == 0 && m&bitActive == 0:
			recruiting = false
			if toRecruit > 0 {
				toRecruit--
			}
		case !active && m&bitRecruiting != 0:
			active, color, recruiting, toRecruit = true, (m>>2)&1, false, rc.depth
			recruits++
		}
		if rc.boundary && active {
			if recruiting {
				misses++
			}
			recruiting = true
		}
		// Field by field: a whole-struct store is assembled on the stack
		// and reloaded, which stalls store forwarding.
		s.Round, s.Active, s.Color, s.Recruiting, s.ToRecruit = r+1, active, color, recruiting, toRecruit
		actions[k] = population.ActKeep
	}
	if deaths != 0 {
		atomic.AddUint64(&pr.stats.ConsistencyDeaths, deaths)
	}
	if recruits != 0 {
		atomic.AddUint64(&pr.stats.Recruits, recruits)
	}
	if misses != 0 {
		atomic.AddUint64(&pr.stats.RecruitMisses, misses)
	}
	return coins
}

// sanitize canonicalizes memory an adversary may have fabricated: the round
// counter is reduced modulo T (the physical register holds ⌈log T⌉ bits, so
// reduction is how overflow would behave), the color likewise to its one-bit
// register, and the recruiting/color flags of an inactive agent are cleared.
// Without the color reduction an active agent holding color 3 would send
// color 1 on the wire but compare its own 3 in the evaluation round, so the
// two sides of one meeting would disagree. Clearing an inactive agent's
// flags enforces the invariant recruiting ⇒ active that the paper's
// three-bit encoding presupposes (proof of Theorem 2): without it, an
// inserted "phantom recruiter" (active = 0, recruiting = 1) would be
// indistinguishable on the wire from a real one and could color other
// agents while remaining inactive itself.
func (pr *Protocol) sanitize(s *agent.State) {
	if !canonical(s, uint32(pr.p.T), uint8(pr.p.HalfLogN)) {
		pr.repair(s)
	}
}

// canonical reports whether sanitize would leave s as it is, as every
// honest agent's state is, in a protocol of t rounds an epoch and a
// recruitment quota of at most half. It is cheap enough to inline into the
// range loops, and tests an inactive agent's flags without a branch on
// Active, which those loops could not predict.
func canonical(s *agent.State, t uint32, half uint8) bool {
	return s.Round < t && uint8(s.ToRecruit) <= half &&
		s.Color|((bit(s.Recruiting)|s.Color)&^bit(s.Active))<<1 <= 1
}

// repair is sanitize for a state that needs it. Inlined into the range
// loops, it would take registers their common path needs.
//
//go:noinline
func (pr *Protocol) repair(s *agent.State) {
	if int(s.Round) >= pr.p.T {
		s.Round %= uint32(pr.p.T)
	}
	s.Color &= 1
	if !s.Active {
		s.Recruiting = false
		s.Color = agent.ColorNone
	}
	// toRecruit is analysis-only bookkeeping; clamp fabricated values into
	// the register's meaningful range [0, ½log N].
	if s.ToRecruit < 0 {
		s.ToRecruit = 0
	}
	if int(s.ToRecruit) > pr.p.HalfLogN {
		s.ToRecruit = int8(pr.p.HalfLogN)
	}
}

// bit is 1 if b holds and 0 otherwise; it compiles without a branch.
func bit(b bool) uint8 {
	var i uint8
	if b {
		i = 1
	}
	return i
}

// Step executes one round of MainProtocolStep (Algorithm 1) for a single
// agent. nbr is the decoded message from the matched neighbor, valid only if
// hasNbr; src supplies the agent's private coin flips. The returned action
// tells the engine whether the agent survives, dies, or splits; daughters of
// a split inherit the post-step state.
func (pr *Protocol) Step(s *agent.State, nbr wire.Message, hasNbr bool, src *prng.Source) population.Action {
	pr.sanitize(s)

	// CheckRoundConsistency (Algorithm 7): die on an evaluation-phase
	// indicator mismatch. This removes adversarially inserted agents with a
	// wrong round counter at their first contact with the majority, at the
	// cost of the matched correct agent (Lemma 3 bounds the damage).
	if !pr.noRoundCheck && hasNbr && s.InEvalPhase(pr.p.T) != nbr.InEvalPhase {
		atomic.AddUint64(&pr.stats.ConsistencyDeaths, 1)
		return population.ActDie
	}

	round := int(s.Round)
	switch {
	case round == 0:
		pr.determineIfLeader(s, src)
		s.AdvanceRound(pr.p.T)
		return population.ActKeep

	case round < pr.p.T-1:
		pr.recruitmentStep(s, nbr, hasNbr, round)
		s.AdvanceRound(pr.p.T)
		return population.ActKeep

	default:
		act := pr.evaluationStep(s, nbr, hasNbr, src)
		// Algorithm 6 lines 12–14 and Algorithm 1 line 12: clear coloring
		// state and wrap to round 0. Daughters inherit this fresh state.
		s.ResetEpochState()
		s.Round = 0
		return act
	}
}

// determineIfLeader is Algorithm 3: become a leader with probability
// 1/(8√N), choosing a uniform color and arming recruitment for a cluster of
// √N agents. Note the paper assigns active := TossBiasedCoin(...), i.e. the
// coin overwrites any prior activation state — adversarially inserted
// "active" agents are re-randomized here like everyone else.
func (pr *Protocol) determineIfLeader(s *agent.State, src *prng.Source) {
	if src.BiasedCoin(pr.p.LeaderBiasExp) {
		s.Active = true
		s.Color = src.Bit()
		s.Recruiting = true
		s.ToRecruit = int8(pr.p.HalfLogN)
		atomic.AddUint64(&pr.stats.Leaders, 1)
		atomic.AddUint64(&pr.stats.LeadersByColor[s.Color], 1)
	} else {
		s.Active = false
		s.Color = agent.ColorNone
		s.Recruiting = false
		s.ToRecruit = 0
	}
}

// recruitmentStep is Algorithm 5. A recruiting agent that meets an inactive
// agent claims it (and stands down for the rest of the subphase); an
// inactive agent that meets a recruiter joins the recruiter's cluster,
// inheriting its color and a recruitment quota derived from the current
// round. At each subphase boundary every active agent re-arms.
func (pr *Protocol) recruitmentStep(s *agent.State, nbr wire.Message, hasNbr bool, round int) {
	rc := pr.rounds[round]
	if hasNbr {
		switch {
		case s.Recruiting && !nbr.Active:
			// Other agent has been activated by us this round.
			s.Recruiting = false
			if s.ToRecruit > 0 {
				s.ToRecruit--
			}
		case !s.Active && nbr.Recruiting:
			// This agent is activated into the neighbor's cluster.
			s.Active = true
			s.Color = nbr.Color
			s.Recruiting = false
			s.ToRecruit = rc.depth
			atomic.AddUint64(&pr.stats.Recruits, 1)
		}
	}
	if rc.boundary && s.Active {
		if s.Recruiting {
			// The agent failed to find an inactive agent all subphase.
			atomic.AddUint64(&pr.stats.RecruitMisses, 1)
		}
		s.Recruiting = true
	}
}

// evaluationStep is Algorithm 6: matched active pairs compare colors. Equal
// colors split with probability 1 − 16/√N; unequal colors die. Unmatched or
// inactive agents do nothing.
func (pr *Protocol) evaluationStep(s *agent.State, nbr wire.Message, hasNbr bool, src *prng.Source) population.Action {
	if !hasNbr || !s.Active || !nbr.Active {
		return population.ActKeep
	}
	if nbr.Color == s.Color {
		// c := TossBiasedCoin(log(√N/16)); if c = 0 then Split().
		if !src.BiasedCoin(pr.p.SplitBiasExp) {
			atomic.AddUint64(&pr.stats.EvalSplits, 1)
			return population.ActSplit
		}
		return population.ActKeep
	}
	atomic.AddUint64(&pr.stats.EvalDeaths, 1)
	return population.ActDie
}
