// Package prng provides a deterministic, splittable pseudo-random number
// generator used throughout the simulator.
//
// The population stability protocol assumes each agent can flip unbiased
// coins (paper §2, "Agents"). For reproducible experiments every component of
// the simulator (protocol, scheduler, adversary) draws from its own stream
// derived with Split, so that, for example, changing the adversary strategy
// does not perturb the protocol's coin flips. This is a standard
// variance-reduction technique for paired simulation comparisons.
//
// The generator is xoshiro256** seeded via SplitMix64, implemented locally so
// that trajectories are stable across Go releases (math/rand makes no such
// promise). It is NOT cryptographically secure and must never be used for
// security purposes; the adversary in the model is information-theoretic and
// is given full read access to all states anyway.
package prng

import "math/bits"

// Source is a deterministic xoshiro256** PRNG stream. It is not safe for
// concurrent use; derive one Source per goroutine with Split.
type Source struct {
	s [4]uint64
	// ctr holds the (key, hi, lo) of a SeedCounter call whose expansion
	// into s is deferred to the first draw; pending marks it as such.
	ctr     [3]uint64
	pending bool
}

// splitMix64 advances a SplitMix64 state and returns the next output. It is
// used for seeding and for deriving child streams.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	return mix64(*state)
}

// mix64 is the SplitMix64 output finalizer: a bijective avalanche mixer on
// 64 bits. Counter-based seeding chains it to absorb key material.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = splitMix64(&sm)
	}
	// xoshiro256** must not be seeded with the all-zero state; SplitMix64
	// cannot produce four consecutive zeros, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

// Uint64 returns the next 64 uniformly random bits. Every draw method
// funnels through it, so it is where a pending SeedCounter is expanded.
func (src *Source) Uint64() uint64 {
	if src.pending {
		src.expand()
	}
	s := &src.s
	var result uint64
	result, s[0], s[1], s[2], s[3] = next(s[0], s[1], s[2], s[3])
	return result
}

// Split derives a new Source whose stream is statistically independent of the
// parent's future output. The parent is advanced by one step.
func (src *Source) Split() *Source {
	// Mix one output through SplitMix64 to decorrelate the child seed from
	// raw xoshiro state.
	seed := src.Uint64()
	return New(splitMix64(&seed))
}

// SeedCounter reinitializes src as the counter-based stream identified by
// (key, hi, lo). Unlike Split, which derives streams sequentially and
// therefore order-dependently, SeedCounter is a pure function of its
// arguments: the stream for (key, round, slot) is the same no matter how
// many other streams were derived before it or on which goroutine. The
// parallel round engine keys one stream per (global round, agent slot) pair
// so per-agent coin flips are independent of iteration order and worker
// count (Philox/SplitMix-style counter PRNG).
//
// The call only records the three words; the first draw (or State) expands
// them into the generator state. The engine keys every agent's stream every
// round, but the protocol flips coins in only two rounds of an epoch, so
// most streams are never expanded. Because the stream is a pure function of
// the counter, deferring the expansion cannot change any draw. The call
// performs no allocation; a zero-value Source on the caller's stack may be
// reseeded once per agent on the hot path.
func (src *Source) SeedCounter(key, hi, lo uint64) {
	src.ctr = [3]uint64{key, hi, lo}
	src.pending = true
}

// expand installs the state of the pending counter stream. The three words
// are absorbed through a chain of bijective avalanche mixes (multiplication
// by odd constants composed with the SplitMix64 finalizer), then expanded to
// the four xoshiro256** state words with SplitMix64.
func (src *Source) expand() {
	key, hi, lo := src.ctr[0], src.ctr[1], src.ctr[2]
	sm := mix64(key + 0x9e3779b97f4a7c15)
	sm = mix64(sm + hi*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb)
	sm = mix64(sm + lo*0x2545f4914f6cdd1d + 0x632be59bd9b4e019)
	for i := range src.s {
		src.s[i] = splitMix64(&sm)
	}
	// Same all-zero-state guard as New; unreachable via SplitMix64 but kept
	// for defense in depth.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	src.pending = false
}

// State returns the generator's full internal state, for deterministic
// snapshot/resume (internal/wire): a Source restored with SetState continues
// the exact output sequence the original would have produced. A pending
// SeedCounter is expanded first, so the state is always the real stream's.
func (src *Source) State() [4]uint64 {
	if src.pending {
		src.expand()
	}
	return src.s
}

// SetState reinstates a state previously captured with State. The all-zero
// state is invalid for xoshiro256** and is rejected with the same guard
// constant New uses; callers round-tripping real State values never hit it.
func (src *Source) SetState(s [4]uint64) {
	src.s = s
	src.pending = false
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
}

// AtCounter returns the counter-based stream (key, hi, lo) by value; see
// SeedCounter. Hot paths should keep one Source per worker and reseed it
// with SeedCounter instead.
func AtCounter(key, hi, lo uint64) Source {
	var src Source
	src.SeedCounter(key, hi, lo)
	return src
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0, matching
// math/rand semantics; callers validate n at configuration time.
func (src *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	return int(src.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly random uint64 in [0, n) using Lemire's
// nearly-divisionless unbiased method. It panics if n == 0.
func (src *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n with zero n")
	}
	hi, lo := bits.Mul64(src.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(src.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniformly random float64 in [0, 1).
func (src *Source) Float64() float64 {
	return float64(src.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns an unbiased coin flip.
func (src *Source) Bool() bool {
	return src.Uint64()&1 == 1
}

// Bit returns an unbiased coin flip as 0 or 1, matching the paper's
// convention color <-$ {0,1}.
func (src *Source) Bit() uint8 {
	return uint8(src.Uint64() & 1)
}

// Prob returns true with probability p. Values outside [0,1] are clamped.
func (src *Source) Prob(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return src.Float64() < p
}

// Shuffle performs a Fisher-Yates shuffle over n elements using swap.
func (src *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (src *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	src.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// ShuffleInt32 shuffles p in place: the Fisher-Yates shuffle of Shuffle,
// drawing exactly the variates Shuffle(len(p), swap) draws (one Uint64n per
// position, rejection loop included) and leaving the source in the same
// state, so a swap closure over an int32 slice can be replaced without
// perturbing any later draw. The generator state lives in locals for the
// whole loop instead of being loaded and stored per draw; hot paths (the
// spatial walk's visit order, the Bernoulli scheduler) use it.
func (src *Source) ShuffleInt32(p []int32) {
	if len(p) < 2 {
		return
	}
	if src.pending {
		src.expand()
	}
	s0, s1, s2, s3 := src.s[0], src.s[1], src.s[2], src.s[3]
	var x uint64
	for i := len(p) - 1; i > 0; i-- {
		n := uint64(i + 1)
		x, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		hi, lo := bits.Mul64(x, n)
		if lo < n {
			thresh := -n % n
			for lo < thresh {
				x, s0, s1, s2, s3 = next(s0, s1, s2, s3)
				hi, lo = bits.Mul64(x, n)
			}
		}
		p[i], p[hi] = p[hi], p[i]
	}
	src.s = [4]uint64{s0, s1, s2, s3}
}

// next is one xoshiro256** step on a state held in registers: Uint64's
// output and successor state.
func next(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)
	return out, s0, s1, s2, s3
}

// PartialShuffleInt32 shuffles the first k positions of p uniformly, as in a
// truncated Fisher-Yates: after the call, p[0:k] is a uniformly random
// k-subset of the original elements in uniformly random order. The remaining
// elements are left in an arbitrary order. This is the core primitive for
// sampling random matchings in O(k) time.
func (src *Source) PartialShuffleInt32(p []int32, k int) {
	n := len(p)
	if k > n {
		k = n
	}
	for i := 0; i < k; i++ {
		j := i + src.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
}

// SampleK returns k distinct uniformly random indices from [0, n) in random
// order. It runs in O(k) expected time using Floyd's algorithm for k << n and
// falls back to a partial shuffle otherwise.
func (src *Source) SampleK(n, k int) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	if k*4 < n {
		// Floyd's sampling: O(k) time, O(k) space.
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for j := n - k; j < n; j++ {
			t := src.Intn(j + 1)
			if _, dup := seen[t]; dup {
				t = j
			}
			seen[t] = struct{}{}
			out = append(out, t)
		}
		// Floyd's produces a uniform set but a biased order; shuffle.
		src.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	src.PartialShuffleInt32(p, k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = int(p[i])
	}
	return out
}
