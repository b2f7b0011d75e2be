package prng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestNewSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of %d outputs", same, n)
	}
}

func TestZeroSeedNotDegenerate(t *testing.T) {
	src := New(0)
	var zeros int
	for i := 0; i < 100; i++ {
		if src.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 2 {
		t.Fatalf("seed 0 produced %d zero outputs in 100 draws", zeros)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must differ from the parent's continuation.
	matches := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			matches++
		}
	}
	if matches > 0 {
		t.Fatalf("parent and child streams matched on %d outputs", matches)
	}
}

func TestSplitDeterministic(t *testing.T) {
	c1 := New(9).Split()
	c2 := New(9).Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	src := New(3)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := src.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnUniformity(t *testing.T) {
	src := New(11)
	const buckets = 10
	const draws = 100000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[src.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		// 5 sigma tolerance for binomial(draws, 1/buckets).
		sigma := math.Sqrt(want * (1 - 1.0/buckets))
		if math.Abs(float64(c)-want) > 5*sigma {
			t.Errorf("bucket %d: count %d, want %.0f +- %.0f", b, c, want, 5*sigma)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	src := New(5)
	for i := 0; i < 100000; i++ {
		v := src.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestBoolBalance(t *testing.T) {
	src := New(13)
	const draws = 100000
	ones := 0
	for i := 0; i < draws; i++ {
		if src.Bool() {
			ones++
		}
	}
	mean := float64(draws) / 2
	sigma := math.Sqrt(float64(draws)) / 2
	if math.Abs(float64(ones)-mean) > 5*sigma {
		t.Fatalf("Bool bias: %d ones of %d", ones, draws)
	}
}

func TestProbEdgeCases(t *testing.T) {
	src := New(17)
	for i := 0; i < 100; i++ {
		if src.Prob(0) {
			t.Fatal("Prob(0) returned true")
		}
		if !src.Prob(1) {
			t.Fatal("Prob(1) returned false")
		}
		if src.Prob(-0.5) {
			t.Fatal("Prob(-0.5) returned true")
		}
		if !src.Prob(1.5) {
			t.Fatal("Prob(1.5) returned false")
		}
	}
}

func TestProbFrequency(t *testing.T) {
	src := New(19)
	const draws = 200000
	const p = 0.3
	hits := 0
	for i := 0; i < draws; i++ {
		if src.Prob(p) {
			hits++
		}
	}
	mean := p * draws
	sigma := math.Sqrt(draws * p * (1 - p))
	if math.Abs(float64(hits)-mean) > 5*sigma {
		t.Fatalf("Prob(%v): %d hits of %d, want about %.0f", p, hits, draws, mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	src := New(23)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := src.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	src := New(29)
	const n = 8
	const draws = 80000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[src.Perm(n)[0]]++
	}
	want := float64(draws) / n
	sigma := math.Sqrt(want * (1 - 1.0/n))
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*sigma {
			t.Errorf("Perm first element %d: count %d, want %.0f", i, c, want)
		}
	}
}

func TestPartialShuffleInt32(t *testing.T) {
	src := New(31)
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%100) + 1
		k := int(kRaw) % (n + 10)
		p := make([]int32, n)
		for i := range p {
			p[i] = int32(i)
		}
		src.PartialShuffleInt32(p, k)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || int(v) >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartialShuffleUniformSubset(t *testing.T) {
	// For n=5, k=2 every element should appear in the prefix w.p. 2/5.
	src := New(37)
	const n, k, draws = 5, 2, 50000
	var counts [n]int
	p := make([]int32, n)
	for i := 0; i < draws; i++ {
		for j := range p {
			p[j] = int32(j)
		}
		src.PartialShuffleInt32(p, k)
		for j := 0; j < k; j++ {
			counts[p[j]]++
		}
	}
	want := float64(draws) * k / n
	sigma := math.Sqrt(float64(draws) * (float64(k) / n) * (1 - float64(k)/n))
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*sigma {
			t.Errorf("element %d in prefix %d times, want about %.0f", i, c, want)
		}
	}
}

func TestSampleKProperties(t *testing.T) {
	src := New(41)
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%200) + 1
		k := int(kRaw) % (n + 5)
		s := src.SampleK(n, k)
		wantLen := k
		if wantLen > n {
			wantLen = n
		}
		if len(s) != wantLen {
			return false
		}
		seen := make(map[int]bool, len(s))
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleKZero(t *testing.T) {
	if s := New(1).SampleK(10, 0); len(s) != 0 {
		t.Fatalf("SampleK(10,0) = %v, want empty", s)
	}
}

func TestSampleKUniformSmallK(t *testing.T) {
	// Floyd's path: k << n. Every index should be sampled equally often.
	src := New(43)
	const n, k, draws = 100, 3, 60000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		for _, v := range src.SampleK(n, k) {
			counts[v]++
		}
	}
	want := float64(draws) * k / n
	sigma := math.Sqrt(float64(draws) * (float64(k) / n))
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*sigma {
			t.Errorf("index %d sampled %d times, want about %.0f", i, c, want)
		}
	}
}

func TestBiasedCoinMatchesSlow(t *testing.T) {
	// Same distribution, not same draws: compare frequencies.
	for _, a := range []int{1, 2, 3, 5, 8} {
		fast := New(uint64(100 + a))
		slow := New(uint64(200 + a))
		const draws = 1 << 18
		fastHits, slowHits := 0, 0
		for i := 0; i < draws; i++ {
			if fast.BiasedCoin(a) {
				fastHits++
			}
			if slow.BiasedCoinSlow(a) {
				slowHits++
			}
		}
		p := math.Pow(2, -float64(a))
		mean := p * draws
		sigma := math.Sqrt(draws * p * (1 - p))
		if math.Abs(float64(fastHits)-mean) > 5*sigma {
			t.Errorf("BiasedCoin(%d): %d hits, want about %.0f +- %.0f", a, fastHits, mean, 5*sigma)
		}
		if math.Abs(float64(slowHits)-mean) > 5*sigma {
			t.Errorf("BiasedCoinSlow(%d): %d hits, want about %.0f +- %.0f", a, slowHits, mean, 5*sigma)
		}
	}
}

func TestBiasedCoinDegenerate(t *testing.T) {
	src := New(1)
	for i := 0; i < 10; i++ {
		if !src.BiasedCoin(0) {
			t.Fatal("BiasedCoin(0) must always be true")
		}
		if !src.BiasedCoin(-3) {
			t.Fatal("BiasedCoin(-3) must always be true")
		}
	}
}

func TestBiasedCoinLargeExponent(t *testing.T) {
	// a = 70 crosses the 64-bit word boundary; probability 2^-70 is
	// effectively zero, so every draw must be false.
	src := New(2)
	for i := 0; i < 10000; i++ {
		if src.BiasedCoin(70) {
			t.Fatal("BiasedCoin(70) returned true (p = 2^-70)")
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	src := New(47)
	const n, p, draws = 50, 0.4, 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < draws; i++ {
		k := float64(src.Binomial(n, p))
		sum += k
		sumSq += k * k
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean-n*p) > 0.5 {
		t.Errorf("Binomial mean %.3f, want %.1f", mean, float64(n)*p)
	}
	wantVar := n * p * (1 - p)
	if math.Abs(variance-wantVar) > 1.5 {
		t.Errorf("Binomial variance %.3f, want %.1f", variance, wantVar)
	}
}

func TestBitBalance(t *testing.T) {
	src := New(53)
	const draws = 100000
	ones := 0
	for i := 0; i < draws; i++ {
		b := src.Bit()
		if b > 1 {
			t.Fatalf("Bit returned %d", b)
		}
		ones += int(b)
	}
	sigma := math.Sqrt(float64(draws)) / 2
	if math.Abs(float64(ones)-draws/2) > 5*sigma {
		t.Fatalf("Bit bias: %d ones of %d", ones, draws)
	}
}

func BenchmarkUint64(b *testing.B) {
	src := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= src.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	src := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink ^= src.Intn(1000)
	}
	_ = sink
}

func BenchmarkBiasedCoin(b *testing.B) {
	src := New(1)
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = sink != src.BiasedCoin(9)
	}
	_ = sink
}

func TestSeedCounterDeterministic(t *testing.T) {
	a := AtCounter(42, 7, 1009)
	var b Source
	b.SeedCounter(42, 7, 1009)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("counter stream diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedCounterReseedsInPlace(t *testing.T) {
	// A reused Source must forget its previous stream entirely: reseeding
	// to the same counter after draining another stream restarts it.
	var src Source
	src.SeedCounter(1, 2, 3)
	first := src.Uint64()
	src.SeedCounter(9, 9, 9)
	src.Uint64()
	src.SeedCounter(1, 2, 3)
	if got := src.Uint64(); got != first {
		t.Fatalf("reseeded stream restarted at %d, want %d", got, first)
	}
}

func TestSeedCounterKeySeparation(t *testing.T) {
	// Streams at distinct counters must not collide on their prefixes, in
	// any of the three coordinates, including counters differing in one bit.
	base := [3]uint64{5, 1000, 2000}
	variants := [][3]uint64{
		{6, 1000, 2000}, {5, 1001, 2000}, {5, 1000, 2001},
		{5, 2000, 1000}, {4, 1000, 2000}, {5, 1000 ^ 1<<63, 2000},
	}
	ref := AtCounter(base[0], base[1], base[2])
	var refOut [64]uint64
	for i := range refOut {
		refOut[i] = ref.Uint64()
	}
	for _, v := range variants {
		src := AtCounter(v[0], v[1], v[2])
		matches := 0
		for i := range refOut {
			if src.Uint64() == refOut[i] {
				matches++
			}
		}
		if matches > 0 {
			t.Errorf("counter %v collided with %v on %d of 64 outputs", v, base, matches)
		}
	}
}

func TestSeedCounterAdjacentSlotBalance(t *testing.T) {
	// Adjacent agent slots within one round are the heaviest correlation
	// exposure of the parallel engine; check first-output bit balance over a
	// run of consecutive slots.
	const n = 4096
	ones := 0
	for slot := uint64(0); slot < n; slot++ {
		src := AtCounter(17, 3, slot)
		ones += bits.OnesCount64(src.Uint64())
	}
	mean := float64(ones) / (n * 64)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("first-output bit mean %.4f across adjacent slots, want 0.5", mean)
	}
}

// counterGolden pins the counter-based streams: the state SeedCounter
// produces and the first eight outputs. Every per-agent coin flip of the
// engine is drawn from such a stream, so any change here changes every
// trajectory.
var counterGolden = []struct {
	counter [3]uint64
	state   [4]uint64
	out     [8]uint64
}{
	{counter: [3]uint64{0x0, 0x0, 0x0},
		state: [4]uint64{0x90ab2e7ad969cbfd, 0x72bbbf5d8a43738f, 0x8b32f8e3680ce0cd, 0xf1eb679096fdb507},
		out:   [8]uint64{0x8051b8a6eda8128e, 0x864bbf32deccc9b6, 0x97b60cd02c28fbc7, 0x49b4c851075edf25, 0x639885f91eeceb5b, 0xb6329294e449a994, 0xc1f8501f6f74af41, 0xc490a1fb19afb4e8}},
	{counter: [3]uint64{0x2a, 0x7, 0x3f1},
		state: [4]uint64{0x23a68e9ed43cfc06, 0xf6d810033abbb4e1, 0xbebb37832ba9c2fd, 0xb07e618d44ba8425},
		out:   [8]uint64{0xfd6848a97f65ca31, 0xdf5d345497234975, 0x1091dfe8848f15c9, 0xd6c9fc5cec43ae7a, 0x6a751010be1ed2fb, 0xd1393822d81539af, 0xaa39a320a5d71da0, 0x72a1ee29c4e001eb}},
	{counter: [3]uint64{0x9e3779b97f4a7c15, 0x288, 0x3ffff},
		state: [4]uint64{0xee0d19d3cef6b5a1, 0x4f9af985e029237a, 0x1a37661899b1970, 0x63941db97d93492b},
		out:   [8]uint64{0x1eee44339d9e3b7f, 0x9f33e43386a08810, 0xe63f019554b2231c, 0xe4435a35d3343e4f, 0x967eb932559b05c3, 0xf6d01f3ea3caa0f0, 0x11688c1d2888b69, 0x25da0a97ed598064}},
	{counter: [3]uint64{0xffffffffffffffff, 0x8000000000000000, 0xffffffffffffffff},
		state: [4]uint64{0x5a19551f2270c60b, 0x7654ebec75e8eb15, 0x58313bde75895bec, 0x191ed4df887683f7},
		out:   [8]uint64{0x76bc485cf8a959df, 0xf1b4777e88f4463b, 0xa2d28969e426aa14, 0xe147d7dd50666c45, 0x8c223999e64971c7, 0x84f8b2348413af29, 0x143d4238c9639ce0, 0x2a9d3611c641b5a5}},
}

func TestCounterGolden(t *testing.T) {
	for _, g := range counterGolden {
		k, hi, lo := g.counter[0], g.counter[1], g.counter[2]
		at := AtCounter(k, hi, lo)
		if got := at.State(); got != g.state {
			t.Errorf("AtCounter%v.State() = %#x, want %#x", g.counter, got, g.state)
		}
		var sc Source
		sc.SeedCounter(k, hi, lo)
		if got := sc.State(); got != g.state {
			t.Errorf("SeedCounter%v then State() = %#x, want %#x", g.counter, got, g.state)
		}
		// Draw from fresh streams too, so the first draw is what expands
		// the counter rather than the State call above.
		at = AtCounter(k, hi, lo)
		sc = Source{}
		sc.SeedCounter(k, hi, lo)
		for i, want := range g.out {
			if got := at.Uint64(); got != want {
				t.Fatalf("AtCounter%v output %d = %#x, want %#x", g.counter, i, got, want)
			}
			if got := sc.Uint64(); got != want {
				t.Fatalf("SeedCounter%v output %d = %#x, want %#x", g.counter, i, got, want)
			}
		}
	}
}

func TestSeedCounterReusedLikeEngine(t *testing.T) {
	// The engine keeps one Source per shard and reseeds it per agent; most
	// agents draw nothing. A stream seeded after one that was never drawn
	// from must still be exactly its own counter's stream.
	const key, round = 99, 323
	var src Source
	src.SeedCounter(key, round, 10)
	src.Uint64()
	src.SeedCounter(key, round, 11)
	src.SeedCounter(key, round, 12)
	want := AtCounter(key, round, 12)
	for i := 0; i < 16; i++ {
		if got, w := src.Uint64(), want.Uint64(); got != w {
			t.Fatalf("output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestSeedCounterCopyBeforeDraw(t *testing.T) {
	var a Source
	a.SeedCounter(3, 1, 4)
	b := a
	for i := 0; i < 16; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("copy diverged at output %d: %#x != %#x", i, x, y)
		}
	}
}

func TestSeedCounterStateMatchesExpansion(t *testing.T) {
	// State must report the expanded stream state even when nothing has
	// been drawn since SeedCounter, so snapshots capture the real stream.
	var src Source
	src.SeedCounter(5, 9, 2)
	st := src.State()
	var resumed Source
	resumed.SetState(st)
	want := AtCounter(5, 9, 2)
	for i := 0; i < 16; i++ {
		if got, w := resumed.Uint64(), want.Uint64(); got != w {
			t.Fatalf("resumed from State: output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestSetStateOverridesSeedCounter(t *testing.T) {
	ref := New(77)
	st := ref.State()
	var src Source
	src.SeedCounter(1, 2, 3)
	src.SetState(st)
	for i := 0; i < 16; i++ {
		if got, want := src.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("output %d after SetState = %#x, want %#x", i, got, want)
		}
	}
	if got, want := src.State(), ref.State(); got != want {
		t.Fatalf("State after draws = %#x, want %#x", got, want)
	}
}

// benchSrc is package-level so the compiler cannot drop the stores of a
// SeedCounter that is never drawn from.
var benchSrc Source

// BenchmarkSeedCounterNoDraw is the cost of a round in which an agent flips
// no coin: the stream is keyed but never drawn from.
func BenchmarkSeedCounterNoDraw(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSrc.SeedCounter(1, 2, uint64(i))
	}
}

// BenchmarkSeedCounterDraw is the cost of a round in which an agent flips a
// coin: keying the stream plus the first draw, which expands it.
func BenchmarkSeedCounterDraw(b *testing.B) {
	var src Source
	var sink uint64
	for i := 0; i < b.N; i++ {
		src.SeedCounter(1, 2, uint64(i))
		sink ^= src.Uint64()
	}
	_ = sink
}

// TestShuffleInt32MatchesShuffle pins ShuffleInt32's drop-in contract: it
// permutes a slice exactly as Shuffle with a swap closure does and draws the
// same variates, on a seeded source and on a counter source that has not
// been expanded yet, so both sources stay in lockstep afterwards.
func TestShuffleInt32MatchesShuffle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 1000, 1 << 16} {
		for _, kind := range []string{"New", "SeedCounter"} {
			var a, b Source
			if kind == "New" {
				a, b = *New(uint64(n) + 5), *New(uint64(n) + 5)
			} else {
				a.SeedCounter(9, uint64(n), 3)
				b.SeedCounter(9, uint64(n), 3)
			}
			want := make([]int32, n)
			for i := range want {
				want[i] = int32(i*7 + 1)
			}
			got := append([]int32(nil), want...)
			a.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
			b.ShuffleInt32(got)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s n=%d: ShuffleInt32 diverged from Shuffle at %d", kind, n, i)
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("%s n=%d: source state diverged", kind, n)
			}
		}
	}
}

// BenchmarkShuffleN262144 is Shuffle with a swap closure over an int32
// slice of the spatial walk's size at N = 2¹⁸: ShuffleInt32's reference.
func BenchmarkShuffleN262144(b *testing.B) {
	src := New(1)
	p := make([]int32, 1<<18)
	for i := 0; i < b.N; i++ {
		src.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	}
}

// BenchmarkShuffleInt32N262144 is the same shuffle through ShuffleInt32.
func BenchmarkShuffleInt32N262144(b *testing.B) {
	src := New(1)
	p := make([]int32, 1<<18)
	for i := 0; i < b.N; i++ {
		src.ShuffleInt32(p)
	}
}
