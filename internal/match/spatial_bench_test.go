package match

import (
	"math"
	"runtime"
	"testing"

	"popstab/internal/pool"
	"popstab/internal/population"
	"popstab/internal/prng"
)

// The first three benchmarks below evidence the sharded pipeline's speedup
// criterion at N = 2²⁰: the historical serial algorithm (the golden
// reference), the pipeline pinned to one worker, and the pipeline at
// NumCPU. Output is bit-identical across all three (see
// TestTorusGoldenAgainstSerialReference); only wall time differs. The
// pipeline benchmarks rewrite one position in place per iteration, so every
// sample builds its candidate rows; BenchmarkTorusMatchReuseN1048576 times
// the samples that reuse them, with the positions held still.

// benchTorusSample times SampleMatch at N = 2²⁰ on a pool of workers; with
// rebuild, each iteration first bumps the positions' Version.
func benchTorusSample(b *testing.B, workers int, rebuild bool) {
	b.Helper()
	const n = 1 << 20
	tor, err := NewTorus(1 / math.Sqrt(float64(n)))
	if err != nil {
		b.Fatal(err)
	}
	pop := population.New(n)
	tor.Bind(pop, prng.New(1))
	wp := pool.New(workers)
	defer wp.Close()
	tor.SetPool(wp)
	src := prng.New(2)
	ps := tor.Positions()
	var p Pairing
	if !rebuild {
		tor.SampleMatch(pop, src, &p) // the one build, untimed
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rebuild {
			ps.SetAt(0, ps.At(0))
		}
		tor.SampleMatch(pop, src, &p)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(n)*float64(b.N)/sec, "agentsteps/s")
	}
}

func BenchmarkTorusMatchReferenceSerialN1048576(b *testing.B) {
	const n = 1 << 20
	tor, err := NewTorus(1 / math.Sqrt(float64(n)))
	if err != nil {
		b.Fatal(err)
	}
	pop := population.New(n)
	tor.Bind(pop, prng.New(1))
	pos := tor.Positions().Slice()
	src := prng.New(2)
	var p Pairing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceNearestSample(pos, src, &p)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(n)*float64(b.N)/sec, "agentsteps/s")
	}
}

func BenchmarkTorusMatchPipelineW1N1048576(b *testing.B) { benchTorusSample(b, 1, true) }
func BenchmarkTorusMatchPipelineN1048576(b *testing.B)   { benchTorusSample(b, runtime.NumCPU(), true) }
func BenchmarkTorusMatchReuseN1048576(b *testing.B)      { benchTorusSample(b, runtime.NumCPU(), false) }
