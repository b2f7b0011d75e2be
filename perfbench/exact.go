package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// goldenJSON holds, per workload, the exact counters and snapshot digest of
// a run at defaultSeed for defaultSeconds.
//
//go:embed golden.json
var goldenJSON []byte

// exact reports counters that are pure functions of the workload, seed and
// --seconds, and fails the run when they differ from golden.json (default
// seed and window) or from an earlier run of the same binary with the same
// arguments. The earlier run's counters are kept next to the binary.
func (r *report) exact(counts map[string]string) {
	r.info["exact"] = counts
	if r.o.seed == defaultSeed && r.o.seconds == defaultSeconds {
		var golden map[string]map[string]string
		if err := json.Unmarshal(goldenJSON, &golden); err != nil {
			r.check(false, "golden.json: %v", err)
			return
		}
		want, ok := golden[r.o.workload]
		r.check(ok, "golden.json has no entry for %s", r.o.workload)
		for k, v := range want {
			r.check(counts[k] == v, "exact %s = %q, golden.json records %q", k, counts[k], v)
		}
	}
	path, err := previousRunPath(r.o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: skipping the repeat-run comparison:", err)
		return
	}
	if blob, err := os.ReadFile(path); err == nil {
		var prev map[string]string
		if err := json.Unmarshal(blob, &prev); err != nil {
			r.check(false, "%s: %v", path, err)
			return
		}
		for k, v := range prev {
			r.check(counts[k] == v, "exact %s = %q, an earlier run of this seed gave %q", k, counts[k], v)
		}
		return
	}
	if err := writeAtomic(path, counts); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cannot record exact counters:", err)
	}
}

// previousRunPath names the file holding the exact counters of runs with
// these arguments, keyed by the binary's own digest so that a rebuilt
// program starts afresh.
func previousRunPath(o options) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	name := fmt.Sprintf("%s-seed%d-%ds-%s.json", o.workload, o.seed, o.seconds, hex.EncodeToString(h.Sum(nil))[:16])
	return filepath.Join(filepath.Dir(exe), "exact", name), nil
}

func writeAtomic(path string, v any) error {
	blob, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
