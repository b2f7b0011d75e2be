package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// perfWarnFraction is the relative agentsteps/s drop beyond which -diff
// emits a perf warning (warn-only: wall-clock differs across machines, so
// throughput can never be a hard gate the way verdicts are).
const perfWarnFraction = 0.20

// Allocation warnings fire when a workload's per-round heap traffic grows
// more than allocWarnFraction above the baseline AND clears the noise
// floors. The floors matter: the steady state is supposed to allocate
// almost nothing per round, so tiny baselines (a handful of allocations
// from timer/runtime noise) would otherwise make the relative test fire on
// jitter. Unlike wall time, allocation counts are machine-independent, so
// a genuine increase is a real code change — but it is still warn-only
// because baselines recorded before these fields existed carry zeros.
const (
	allocWarnFraction = 0.20
	allocsNoiseFloor  = 16.0    // allocs/round below this are ignored
	bytesNoiseFloor   = 65536.0 // bytes/round below this are ignored
)

// loadReport parses one -json document from disk.
func loadReport(path string) (*jsonReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep jsonReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: not a popbench -json document: %w", path, err)
	}
	if rep.SchemaVersion < 1 || len(rep.Experiments) == 0 {
		return nil, fmt.Errorf("%s: not a popbench -json document (schema %d, %d experiments)",
			path, rep.SchemaVersion, len(rep.Experiments))
	}
	return &rep, nil
}

// runDiff compares two -json documents and writes a human-readable summary
// to w. It returns an error — failing the build — when an experiment that
// reproduced in the old document no longer reproduces in the new one (or
// disappeared from it); agentsteps/s drops beyond perfWarnFraction are
// reported as warnings only.
func runDiff(w io.Writer, oldPath, newPath string) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	if oldRep.Scale != newRep.Scale || oldRep.Seed != newRep.Seed {
		fmt.Fprintf(w, "note: comparing scale=%s seed=%d against scale=%s seed=%d\n",
			oldRep.Scale, oldRep.Seed, newRep.Scale, newRep.Seed)
	}

	newByID := map[string]jsonExperiment{}
	for _, e := range newRep.Experiments {
		newByID[e.ID] = e
	}
	oldByID := map[string]jsonExperiment{}
	for _, e := range oldRep.Experiments {
		oldByID[e.ID] = e
	}

	// Experiments present only in the new document are reported as "added"
	// — informational, never a failure: a PR that introduces an experiment
	// should not need a baseline refresh to merge, and an added DEVIATION
	// is the new experiment's own problem (popbench -json already exits
	// non-zero on it), not a regression of the baseline.
	var regressions, fixed, added []string
	for _, oldE := range oldRep.Experiments {
		newE, ok := newByID[oldE.ID]
		if !ok {
			if oldE.Reproduced {
				regressions = append(regressions,
					fmt.Sprintf("%s (%s): reproduced before, missing from the new run", oldE.ID, oldE.Title))
			}
			continue
		}
		switch {
		case oldE.Reproduced && !newE.Reproduced:
			regressions = append(regressions,
				fmt.Sprintf("%s (%s): REPRODUCED -> %s", newE.ID, newE.Title, newE.Verdict))
		case !oldE.Reproduced && newE.Reproduced:
			fixed = append(fixed, newE.ID)
		}
	}
	for _, newE := range newRep.Experiments {
		if _, ok := oldByID[newE.ID]; !ok {
			status := "DEVIATION"
			if newE.Reproduced {
				status = "reproduced"
			}
			added = append(added, fmt.Sprintf("%s (%s)", newE.ID, status))
		}
	}

	fmt.Fprintf(w, "verdicts: %d compared, %d regressed, %d fixed, %d added\n",
		len(oldRep.Experiments), len(regressions), len(fixed), len(added))
	for _, id := range fixed {
		fmt.Fprintf(w, "  fixed: %s now reproduces\n", id)
	}
	for _, a := range added {
		fmt.Fprintf(w, "  added: %s (informational; refresh the baseline to start gating it)\n", a)
	}

	warnings := diffBenchmarks(w, oldRep.Benchmarks, newRep.Benchmarks)
	for _, warn := range warnings {
		fmt.Fprintf(w, "WARNING: %s\n", warn)
	}

	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintf(w, "REGRESSION: %s\n", r)
		}
		return fmt.Errorf("%d experiment verdict regression(s)", len(regressions))
	}
	fmt.Fprintln(w, "no verdict regressions")
	return nil
}

// diffBenchmarks compares agentsteps/s by benchmark name and returns the
// warning lines for drops beyond perfWarnFraction.
func diffBenchmarks(w io.Writer, oldB, newB []jsonBenchmark) []string {
	if len(oldB) == 0 {
		return nil
	}
	if len(newB) == 0 {
		// The baseline tracks throughput but the new run carries none
		// (e.g. the -bench flag was dropped from CI): say so, or the perf
		// gate dies silently.
		return []string{"baseline has benchmarks but the new run has none (was -bench dropped?)"}
	}
	newByName := map[string]jsonBenchmark{}
	for _, b := range newB {
		newByName[b.Name] = b
	}
	var warnings []string
	for _, ob := range oldB {
		nb, ok := newByName[ob.Name]
		if !ok {
			warnings = append(warnings,
				fmt.Sprintf("benchmark %s missing from the new run", ob.Name))
			continue
		}
		if ob.AgentStepsPerSec <= 0 {
			continue
		}
		ratio := nb.AgentStepsPerSec / ob.AgentStepsPerSec
		fmt.Fprintf(w, "bench %-24s %14.0f -> %14.0f agentsteps/s (%+.1f%%)\n",
			ob.Name, ob.AgentStepsPerSec, nb.AgentStepsPerSec, (ratio-1)*100)
		if nb.WalkNSPerRound > 0 {
			fmt.Fprintf(w, "      %-24s phases/round: bucket %s scatter %s cand %s walk %s\n",
				"", fmtNS(nb.BucketNSPerRound), fmtNS(nb.ScatterNSPerRound),
				fmtNS(nb.CandNSPerRound), fmtNS(nb.WalkNSPerRound))
		}
		if ratio < 1-perfWarnFraction {
			warnings = append(warnings, fmt.Sprintf(
				"benchmark %s agentsteps/s dropped %.1f%% (%.0f -> %.0f); investigate before merging",
				ob.Name, (1-ratio)*100, ob.AgentStepsPerSec, nb.AgentStepsPerSec))
		}
		warnings = append(warnings,
			allocWarning(ob.Name, "allocs/round", ob.AllocsPerRound, nb.AllocsPerRound, allocsNoiseFloor)...)
		warnings = append(warnings,
			allocWarning(ob.Name, "bytes/round", ob.BytesPerRound, nb.BytesPerRound, bytesNoiseFloor)...)
	}
	return warnings
}

// allocWarning reports a per-round allocation regression for one metric,
// or nothing when the change is under allocWarnFraction, under the noise
// floor, or the baseline predates the metric (old == 0).
func allocWarning(name, metric string, old, cur, floor float64) []string {
	if old <= 0 || cur <= floor {
		return nil
	}
	if cur/old <= 1+allocWarnFraction {
		return nil
	}
	return []string{fmt.Sprintf(
		"benchmark %s %s grew %.0f%% (%.0f -> %.0f); per-round garbage crept back in — investigate before merging",
		name, metric, (cur/old-1)*100, old, cur)}
}
