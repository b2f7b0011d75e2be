package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"popstab/internal/experiment"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	// E13 is the cheapest experiment in the suite.
	if err := run([]string{"-scale", "quick", "-run", "E13"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMarkdown(t *testing.T) {
	if err := run([]string{"-scale", "quick", "-run", "E13", "-markdown"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run([]string{"-scale", "huge"}); err == nil {
		t.Error("accepted unknown scale")
	}
	if err := run([]string{"-run", "E99"}); err == nil {
		t.Error("accepted unknown experiment")
	}
}

func TestRefreshBaseline(t *testing.T) {
	path := t.TempDir() + "/baseline.json"
	// -run narrows the suite to keep the test fast; the default (full
	// suite) is what regenerates the committed baseline.
	if err := run([]string{"-refresh-baseline", "-baseline", path, "-run", "E13"}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("baseline is not valid JSON: %v", err)
	}
	if rep.Scale != "quick" || len(rep.Experiments) != 1 {
		t.Fatalf("baseline document %+v lacks forced quick/json shape", rep)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(blob, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["benchmarks"]; ok {
		t.Error("baseline carries a benchmarks key; popbench measures no throughput")
	}
	// The refreshed document must diff cleanly against itself.
	if err := run([]string{"-diff", path, path}); err != nil {
		t.Fatalf("fresh baseline does not pass its own gate: %v", err)
	}
}

func TestRefreshBaselineFlagConflicts(t *testing.T) {
	if err := run([]string{"-refresh-baseline", "-diff", "a", "b"}); err == nil {
		t.Error("accepted -refresh-baseline with -diff")
	}
	if err := run([]string{"-refresh-baseline", "-list"}); err == nil {
		t.Error("accepted -refresh-baseline with -list")
	}
}

// runStdout runs popbench with args and returns what it wrote to stdout.
func runStdout(t *testing.T, args ...string) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	// Drain concurrently: run() writes synchronously, so an undrained pipe
	// would deadlock once output exceeds the pipe buffer.
	outCh := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		outCh <- b
	}()
	runErr := run(args)
	w.Close()
	os.Stdout = old
	out := <-outCh
	if runErr != nil {
		t.Fatalf("run: %v (output %q)", runErr, out)
	}
	return out
}

func TestRunJSON(t *testing.T) {
	// Validate the machine-readable document parses and carries the
	// fields the -diff gate depends on.
	out := runStdout(t, "-scale", "quick", "-run", "E13", "-json")
	var rep jsonReport
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if rep.SchemaVersion != 1 || rep.Scale != "quick" || rep.Failures != 0 {
		t.Errorf("unexpected report header: %+v", rep)
	}
	if len(rep.Experiments) != 1 {
		t.Fatalf("got %d experiments", len(rep.Experiments))
	}
	e := rep.Experiments[0]
	if e.ID != "E13" || !e.Reproduced || e.Verdict == "" || e.ElapsedMS < 0 {
		t.Errorf("unexpected experiment record: %+v", e)
	}
}

// TestQuickExperimentsMatchBaseline regenerates six cheap experiments
// and requires their verdicts, tables and notes to equal the committed
// BENCH_baseline.json entries, so table drift is caught by go test and
// not only by the CI diff of the whole suite. Between them they cover a
// paced Spec adversary (E3), the Spec-built stability runs (E12), the
// matched fraction as Spec.Gamma (E14), the rogue cohort (E17), a
// Spec-built torus with its color probe (A5), and arms that still build a
// sim.Config (E13's codec runs).
func TestQuickExperimentsMatchBaseline(t *testing.T) {
	base, err := loadReport(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if base.Scale != "quick" || base.Seed != 7 {
		t.Fatalf("committed baseline is scale=%s seed=%d, want quick/7", base.Scale, base.Seed)
	}
	want := map[string]jsonExperiment{}
	for _, e := range base.Experiments {
		want[e.ID] = e
	}
	out := runStdout(t, "-scale", "quick", "-seed", "7", "-run", "E3,E12,E13,E14,E17,A5", "-json")
	var rep jsonReport
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if len(rep.Experiments) != 6 {
		t.Fatalf("got %d experiments, want 6", len(rep.Experiments))
	}
	for _, got := range rep.Experiments {
		w, ok := want[got.ID]
		if !ok {
			t.Errorf("%s: missing from the committed baseline", got.ID)
			continue
		}
		if d := firstDrift(w, got); d != "" {
			t.Errorf("drift from the committed baseline: %s", d)
		}
	}
}

// writeReport marshals a jsonReport to a temp file for -diff tests.
func writeReport(t *testing.T, rep jsonReport) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	f := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(f, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return f
}

// baseReport builds a healthy two-experiment document.
func baseReport() jsonReport {
	return jsonReport{
		SchemaVersion: 1,
		Scale:         "quick",
		Seed:          7,
		Workers:       1,
		NumCPU:        1,
		GoVersion:     "go1.24.0",
		TotalMS:       1000,
		Experiments: []jsonExperiment{
			{ID: "E1", Title: "main theorem", Verdict: "REPRODUCED: ok", Reproduced: true, ElapsedMS: 600,
				Tables: []experiment.Table{{
					Title: "max deviation",
					Cols:  []string{"N", "maxDev"},
					Rows:  [][]string{{"4096", "0.005"}, {"16384", "0.002"}},
				}},
				Notes: []string{"all epochs inside the interval"}},
			{ID: "A8", Title: "topology gallery", Verdict: "REPRODUCED: ok", Reproduced: true, ElapsedMS: 400},
		},
	}
}

// TestDiffNoRegression: identical documents pass, and so do documents
// that differ only in wall times and host fields, which -diff ignores.
func TestDiffNoRegression(t *testing.T) {
	old := writeReport(t, baseReport())
	neu := writeReport(t, baseReport())
	if err := run([]string{"-diff", old, neu}); err != nil {
		t.Fatalf("identical documents diffed dirty: %v", err)
	}
	host := baseReport()
	host.Workers, host.NumCPU, host.GoVersion, host.TotalMS = 8, 8, "go1.99.0", 1
	for i := range host.Experiments {
		host.Experiments[i].ElapsedMS *= 3
	}
	if err := run([]string{"-diff", old, writeReport(t, host)}); err != nil {
		t.Fatalf("timing and host fields failed the diff: %v", err)
	}
}

// TestDiffVerdictRegressionFails is the CI gate's core contract: an
// experiment that flips REPRODUCED -> DEVIATION fails the diff.
func TestDiffVerdictRegressionFails(t *testing.T) {
	old := writeReport(t, baseReport())
	bad := baseReport()
	bad.Experiments[1].Reproduced = false
	bad.Experiments[1].Verdict = "DEVIATION: containment thresholds shifted"
	bad.Failures = 1
	neu := writeReport(t, bad)
	err := run([]string{"-diff", old, neu})
	if err == nil {
		t.Fatal("verdict regression did not fail the diff")
	}
	if !strings.Contains(err.Error(), `A8: verdict "REPRODUCED: ok" -> "DEVIATION`) {
		t.Errorf("error does not name the verdict drift: %v", err)
	}
}

// TestDiffMissingExperimentFails: a previously reproduced experiment that
// vanishes from the new run is a regression, not a silent pass.
func TestDiffMissingExperimentFails(t *testing.T) {
	old := writeReport(t, baseReport())
	short := baseReport()
	short.Experiments = short.Experiments[:1]
	neu := writeReport(t, short)
	if err := run([]string{"-diff", old, neu}); err == nil {
		t.Fatal("missing experiment did not fail the diff")
	}
}

// TestDiffDriftNamesLocation: any change to a baseline experiment's
// tables or notes fails the diff, and the failure names where it is.
func TestDiffDriftNamesLocation(t *testing.T) {
	old := writeReport(t, baseReport())
	for _, tc := range []struct {
		name string
		edit func(e *jsonExperiment)
		want string
	}{
		{"cell", func(e *jsonExperiment) { e.Tables[0].Rows[1][1] = "0.003" },
			`E1 table "max deviation" row 2 column "maxDev": "0.002" -> "0.003"`},
		{"note", func(e *jsonExperiment) { e.Notes[0] = "one epoch escaped" },
			`E1 note 1: "all epochs inside the interval" -> "one epoch escaped"`},
		{"row added", func(e *jsonExperiment) {
			e.Tables[0].Rows = append(e.Tables[0].Rows, []string{"65536", "0.001"})
		}, `E1 table "max deviation": 2 rows -> 3`},
		{"column renamed", func(e *jsonExperiment) { e.Tables[0].Cols = []string{"N", "dev"} },
			`E1 table "max deviation": columns ["N" "maxDev"] -> ["N" "dev"]`},
		{"table title", func(e *jsonExperiment) { e.Tables[0].Title = "deviation" },
			`E1 table 1: title "max deviation" -> "deviation"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := baseReport()
			tc.edit(&rep.Experiments[0])
			var sb strings.Builder
			err := runDiff(&sb, old, writeReport(t, rep))
			if err == nil {
				t.Fatal("drift did not fail the diff")
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(sb.String(), "DRIFT: "+tc.want) {
				t.Errorf("drift not named as %s:\nerror: %v\noutput:\n%s", tc.want, err, sb.String())
			}
		})
	}
}

// TestDiffRejectsBadInput covers argument and document validation.
func TestDiffRejectsBadInput(t *testing.T) {
	good := writeReport(t, baseReport())
	if err := run([]string{"-diff", good}); err == nil {
		t.Error("accepted one argument")
	}
	if err := run([]string{"-diff", good, filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("accepted missing file")
	}
	junk := filepath.Join(t.TempDir(), "junk.json")
	if err := os.WriteFile(junk, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-diff", good, junk}); err == nil {
		t.Error("accepted non-popbench document")
	}
	// Documents of another scale or seed differ in every cell; the diff
	// refuses to compare them instead of reporting a wall of drift.
	for _, edit := range []func(*jsonReport){
		func(r *jsonReport) { r.Scale = "full" },
		func(r *jsonReport) { r.Seed = 8 },
	} {
		rep := baseReport()
		edit(&rep)
		if err := run([]string{"-diff", good, writeReport(t, rep)}); err == nil ||
			!strings.Contains(err.Error(), "cannot compare") {
			t.Errorf("accepted scale=%s seed=%d against quick/7: %v", rep.Scale, rep.Seed, err)
		}
	}
}

// TestDiffAddedExperimentInformational: experiments present only in the new
// document are reported as added but never fail the diff — not even when
// the added experiment itself deviates (a new experiment's failure is its
// own, not a baseline regression).
func TestDiffAddedExperimentInformational(t *testing.T) {
	old := writeReport(t, baseReport())
	newRep := baseReport()
	newRep.Experiments = append(newRep.Experiments,
		jsonExperiment{ID: "A9", Title: "patch attacks", Verdict: "REPRODUCED: ok", Reproduced: true},
		jsonExperiment{ID: "A10", Title: "hypothetical", Verdict: "DEVIATION: bad", Reproduced: false})
	neu := writeReport(t, newRep)

	var sb strings.Builder
	if err := runDiff(&sb, old, neu); err != nil {
		t.Fatalf("added experiments failed the diff: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"2 added", "added: A9 (reproduced)", "added: A10 (DEVIATION)"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}
