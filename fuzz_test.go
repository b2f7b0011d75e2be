package popstab_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"popstab"
)

// FuzzSpec drives the Spec trust boundary — the JSON the serving layer
// decodes from the network — through Normalize and Hash. For every input
// it checks that nothing panics, that Normalize is idempotent, that Hash
// survives a JSON round trip and ignores Workers, that a spec normalizes if
// and only if it builds, and that a spec and its normalized form build
// sessions with byte-identical snapshots at round 0. The build half runs only on specs
// small enough to build in milliseconds (N ≤ 16384, InitialSize and
// InitialRogues ≤ 4·N, Tinner ≤ 1024, at most 2 workers), so the fuzzer
// never allocates a large population, epoch table or worker pool.
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

		rogues := 0
		if sp.Rogue != nil {
			rogues = sp.Rogue.InitialRogues
		}
		if sp.N > 16384 || sp.InitialSize > 4*sp.N || rogues > 4*sp.N || sp.Tinner > 1024 {
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
	})
}
