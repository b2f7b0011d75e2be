package popstab_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"popstab"
)

// FuzzSpec drives the Spec trust boundary — the JSON the serving layer
// decodes from the network — through Normalize and Hash. For every input
// it checks that nothing panics, that Normalize is idempotent, that Hash
// survives a JSON round trip and ignores Workers, that a spec normalizes if
// and only if it builds, that a spec and its normalized form build sessions
// with byte-identical snapshots at round 0, and that a built session steps
// specRounds rounds without panicking. The build half runs only on specs
// with N ≤ 16384, clamped to at most 2 workers; resolve bounds everything
// else that sizes memory by N (T ≤ N; K, InitialSize and the rogue
// cohorts ≤ 4·N), so every spec that builds is small enough to build and
// step in milliseconds.
//
// The seed corpus lives in testdata/fuzz/FuzzSpec; plain go test runs it.
// Explore with: go test -run '^$' -fuzz '^FuzzSpec$' -fuzztime 30s .
func FuzzSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp popstab.Spec
		if json.Unmarshal(data, &sp) != nil {
			return
		}
		norm, err := sp.Normalize()
		hash, herr := sp.Hash()
		if (err == nil) != (herr == nil) {
			t.Fatalf("Normalize error %v but Hash error %v", err, herr)
		}
		if err == nil {
			again, err := norm.Normalize()
			if err != nil || !reflect.DeepEqual(again, norm) {
				t.Fatalf("Normalize not idempotent:\n first %+v\nsecond %+v (%v)", norm, again, err)
			}
			blob, err := json.Marshal(sp)
			if err != nil {
				t.Fatal(err)
			}
			var back popstab.Spec
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatal(err)
			}
			if h, err := back.Hash(); err != nil || h != hash {
				t.Fatalf("Hash changed across a JSON round trip: %s -> %s (%v)", hash, h, err)
			}
			w := sp
			w.Workers = 7
			if h, err := w.Hash(); err != nil || h != hash {
				t.Fatalf("Workers changed the hash: %s -> %s (%v)", hash, h, err)
			}
		}

		if sp.N > 16384 {
			return
		}
		if sp.Workers > 2 {
			sp.Workers = 2
		}
		s, berr := popstab.NewSessionFromSpec(sp)
		if (err == nil) != (berr == nil) {
			t.Fatalf("Normalize error %v but build error %v for %+v", err, berr, sp)
		}
		if s == nil {
			return
		}
		defer s.Close()
		norm.Workers = sp.Workers
		ns, err := popstab.NewSessionFromSpec(norm)
		if err != nil {
			t.Fatalf("normalized spec does not build: %v", err)
		}
		defer ns.Close()
		if !bytes.Equal(s.Snapshot(), ns.Snapshot()) {
			t.Fatalf("spec and its normalized form build different sessions: %+v vs %+v", sp, norm)
		}
		s.Step(specRounds)
	})
}

// specRounds is how far FuzzSpec steps each built session. Spatial
// adversaries and rogue clusters place their first agents in round 0, so
// an off-square placement a spec let through would panic within it.
const specRounds = 3

// restoreSpecs are the sessions FuzzRestore snapshots: the well-mixed
// protocol under the greedy adversary, the torus under the patch attack,
// and a small world with a rogue cluster (rogue tags and queued
// placements in the state).
var restoreSpecs = []popstab.Spec{
	{N: 4096, Tinner: 24, Seed: 1, Workers: 1, Adversary: "greedy", K: 1, PerEpochBudget: 8},
	{N: 4096, Tinner: 24, Seed: 2, Workers: 1, Topology: "torus", Adversary: "patch-combo",
		Patch: &popstab.BallSpec{X: 0.5, Y: 0.5, R: 0.1}, K: 1, PerEpochBudget: 24},
	{N: 4096, Tinner: 24, Seed: 3, Workers: 1, Topology: "smallworld",
		Rogue: &popstab.RogueSpec{ReplicateEvery: 3, DetectProb: 1, InitialRogues: 16, RoguesPerEpoch: 4,
			Cluster: &popstab.BallSpec{X: 0.25, R: 0.05}}},
}

// restoreSnapshots returns one session snapshot per restoreSpecs entry,
// taken after a few rounds so every section carries live state.
func restoreSnapshots(tb testing.TB) [][]byte {
	tb.Helper()
	blobs := make([][]byte, len(restoreSpecs))
	for i, sp := range restoreSpecs {
		s, err := popstab.NewSessionFromSpec(sp)
		if err != nil {
			tb.Fatal(err)
		}
		s.Step(5)
		blobs[i] = s.Snapshot()
		s.Close()
	}
	return blobs
}

// engineDocAt is the offset of the engine document inside a session
// snapshot: magic and version (8 bytes), the session section's tag and
// length (12), five cumulative counters (40), then the document's length
// prefix (8).
const engineDocAt = 68

// patchEngineDoc returns a copy of the session snapshot blob with patch
// written over its nested engine document at offset off (wrapped into the
// document, clipped at its checksum trailer), and both CRC-32C trailers —
// the engine document's and the session document's — resealed, so the
// patched bytes get past the framing to the section decoders.
func patchEngineDoc(blob []byte, off int, patch []byte) []byte {
	out := bytes.Clone(blob)
	n := int(binary.LittleEndian.Uint64(out[engineDocAt-8:]))
	doc := out[engineDocAt : engineDocAt+n]
	body := doc[:n-4]
	copy(body[off%len(body):], patch)
	reseal(doc)
	reseal(out)
	return out
}

// reseal rewrites a snapshot document's trailing CRC-32C over its body.
func reseal(doc []byte) {
	body := doc[:len(doc)-4]
	binary.LittleEndian.PutUint32(doc[len(doc)-4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// FuzzRestore drives the snapshot trust boundary — the bytes popserve
// restores from a client or a checkpoint store — through
// RestoreSessionFromSpec. Each input picks one of the restoreSpecs
// snapshots, overwrites its engine document with patch at offset off and
// reseals the checksums; the restore must then either fail or yield a
// session that steps restoreRounds rounds without panicking.
//
// The seed corpus lives in testdata/fuzz/FuzzRestore; plain go test runs it.
// Explore with: go test -run '^$' -fuzz '^FuzzRestore$' -fuzztime 30s .
func FuzzRestore(f *testing.F) {
	blobs := restoreSnapshots(f)
	for i := range blobs {
		f.Add(uint8(i), uint32(0), []byte{})
	}
	f.Fuzz(func(t *testing.T, which uint8, off uint32, patch []byte) {
		k := int(which) % len(restoreSpecs)
		s, err := popstab.RestoreSessionFromSpec(restoreSpecs[k], patchEngineDoc(blobs[k], int(off), patch))
		if err != nil {
			return
		}
		defer s.Close()
		s.Step(restoreRounds)
	})
}

// restoreRounds is how far FuzzRestore steps a restored session.
const restoreRounds = 2

// TestRestoreRejectsOffSquarePosition pins the restore domain check: a
// torus snapshot whose position 0 is moved off the closed unit square, or
// to NaN, and resealed must fail to restore, naming the position, instead
// of panicking in the next round's bucketing; the square's far corner is
// on it.
func TestRestoreRejectsOffSquarePosition(t *testing.T) {
	blob := restoreSnapshots(t)[1]
	off := positionOffset(t, blob)
	for _, tc := range []struct {
		x, y float64
		ok   bool
	}{{-0.5, 0, false}, {math.NaN(), 0, false}, {0.5, 1.5, false}, {math.Inf(1), 0.5, false}, {1, 1, true}} {
		var patch [16]byte
		binary.LittleEndian.PutUint64(patch[0:], math.Float64bits(tc.x))
		binary.LittleEndian.PutUint64(patch[8:], math.Float64bits(tc.y))
		s, err := popstab.RestoreSessionFromSpec(restoreSpecs[1], patchEngineDoc(blob, off, patch[:]))
		switch {
		case tc.ok && err != nil:
			t.Errorf("restore with position 0 at (%v, %v): %v", tc.x, tc.y, err)
		case tc.ok:
			s.Step(restoreRounds)
			s.Close()
		case err == nil || !strings.Contains(err.Error(), "position 0"):
			t.Errorf("restore with position 0 at (%v, %v): err %v, want one naming position 0", tc.x, tc.y, err)
		}
	}
}

// positionOffset locates position 0 inside a spatial session snapshot's
// engine document: it walks the document's sections (tag u32, length u64,
// payload) to the matcher's (tag 4), whose payload holds two 4-word stream
// states, two sample counters and the position count before the points.
func positionOffset(t *testing.T, blob []byte) int {
	t.Helper()
	n := int(binary.LittleEndian.Uint64(blob[engineDocAt-8:]))
	doc := blob[engineDocAt : engineDocAt+n]
	const matcherTag = 4
	for at := 8; at+12 <= len(doc)-4; {
		tag := binary.LittleEndian.Uint32(doc[at:])
		size := int(binary.LittleEndian.Uint64(doc[at+4:]))
		if tag == matcherTag {
			return at + 12 + 10*8 + 8
		}
		at += 12 + size
	}
	t.Fatal("no matcher section in the engine document")
	return 0
}
