// Command popbench runs the reproduction experiment suite (E1–E17, A1–A9)
// and prints the regenerated tables — the rows recorded in EXPERIMENTS.md.
//
// Examples:
//
//	popbench -list
//	popbench -scale quick
//	popbench -scale full -run E1,E7,E12
//	popbench -scale full -markdown > results.md
//	popbench -scale quick -json > results.json
//	popbench -diff BENCH_baseline.json results.json
//	popbench -refresh-baseline
//
// The -json form emits one machine-readable document (schema below): every
// experiment's verdict, tables and notes, plus its wall time. The -diff
// form compares two such documents exactly, the CI reproduction gate
// (BENCH_baseline.json is the committed baseline): it FAILS on any
// difference in a baseline experiment's verdict, table cell or note, and
// names the first one in each experiment. Documents of another scale or
// seed are rejected; wall times and host fields are never compared. The
// -refresh-baseline form regenerates that committed baseline in one
// command after a PR intentionally changes a verdict, table or note.
//
// Simulator performance is measured by perfbench (perfbench/run.sh) and
// the go test benchmarks in bench_test.go, not here.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"popstab/internal/experiment"
)

// jsonReport is the machine-readable output of a -json run. Fields are
// stable: add, don't rename, so committed baselines keep parsing.
type jsonReport struct {
	SchemaVersion int              `json:"schema_version"`
	Scale         string           `json:"scale"`
	Seed          uint64           `json:"seed"`
	Workers       int              `json:"workers"`
	NumCPU        int              `json:"num_cpu"`
	GoVersion     string           `json:"go_version"`
	TotalMS       int64            `json:"total_ms"`
	Failures      int              `json:"failures"`
	Experiments   []jsonExperiment `json:"experiments"`
}

// jsonExperiment is one experiment's outcome and cost.
type jsonExperiment struct {
	ID         string             `json:"id"`
	Title      string             `json:"title"`
	Claim      string             `json:"claim"`
	Verdict    string             `json:"verdict"`
	Reproduced bool               `json:"reproduced"`
	ElapsedMS  int64              `json:"elapsed_ms"`
	Tables     []experiment.Table `json:"tables,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "popbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("popbench", flag.ContinueOnError)
	var (
		scaleName = fs.String("scale", "quick", "experiment scale: quick|full")
		runIDs    = fs.String("run", "", "comma-separated experiment IDs (empty = all)")
		seed      = fs.Uint64("seed", 7, "suite PRNG seed")
		workers   = fs.Int("workers", runtime.NumCPU(), "trial-level parallelism")
		list      = fs.Bool("list", false, "list experiments and exit")
		markdown  = fs.Bool("markdown", false, "emit results as markdown")
		asJSON    = fs.Bool("json", false, "emit one machine-readable JSON document")
		diff      = fs.Bool("diff", false, "compare two -json documents: popbench -diff old.json new.json")
		refresh   = fs.Bool("refresh-baseline", false, "regenerate the committed CI baseline in one command (forces -scale quick -json, writes to -baseline)")
		baseline  = fs.String("baseline", "BENCH_baseline.json", "output path for -refresh-baseline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// One-command baseline refresh: the exact invocation CI diffs against,
	// written where CI reads it. Use after a PR intentionally changes
	// a verdict, table or note (see ROADMAP). The document is staged in
	// memory and renamed into place only after the whole suite succeeded,
	// so a mid-suite failure (or a deviating experiment) can never
	// truncate or corrupt the committed baseline.
	jsonOut := io.Writer(os.Stdout)
	var refreshBuf bytes.Buffer
	if *refresh {
		if *diff || *list {
			return fmt.Errorf("-refresh-baseline cannot combine with -diff or -list")
		}
		*scaleName = "quick"
		*asJSON = true
		*markdown = false
		jsonOut = &refreshBuf
	}

	if *diff {
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff needs exactly two arguments: old.json new.json")
		}
		return runDiff(os.Stdout, fs.Arg(0), fs.Arg(1))
	}

	if *list {
		for _, e := range experiment.All() {
			fmt.Printf("%-4s %s\n     %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}

	cfg := experiment.Config{Seed: *seed, Workers: *workers}
	switch *scaleName {
	case "quick":
		cfg.Scale = experiment.Quick
	case "full":
		cfg.Scale = experiment.Full
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}

	exps := experiment.All()
	if *runIDs != "" {
		exps = nil
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := experiment.Lookup(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			exps = append(exps, e)
		}
	}

	type summaryRow struct {
		id, title, status string
		elapsed           time.Duration
	}
	var summary []summaryRow
	report := jsonReport{
		SchemaVersion: 1,
		Scale:         *scaleName,
		Seed:          *seed,
		Workers:       *workers,
		NumCPU:        runtime.NumCPU(),
		GoVersion:     runtime.Version(),
	}
	suiteStart := time.Now()
	stop := make(chan struct{})
	defer close(stop)
	outs := runConcurrently(exps, cfg, *workers, stop)
	failures := 0
	for _, out := range outs {
		o := <-out
		if o.err != nil {
			return o.err
		}
		res, elapsed := o.res, o.elapsed
		reproduced := strings.HasPrefix(res.Verdict, "REPRODUCED")
		switch {
		case *asJSON:
			report.Experiments = append(report.Experiments, jsonExperiment{
				ID:         res.ID,
				Title:      res.Title,
				Claim:      res.Claim,
				Verdict:    res.Verdict,
				Reproduced: reproduced,
				ElapsedMS:  elapsed.Milliseconds(),
				Tables:     res.Tables,
				Notes:      res.Notes,
			})
		case *markdown:
			printMarkdown(res, elapsed)
		default:
			fmt.Println(res.Render())
			fmt.Printf("(%s in %s at scale %s)\n\n", res.ID, elapsed, *scaleName)
		}
		status := "reproduced"
		if !reproduced {
			failures++
			status = "DEVIATION"
		}
		summary = append(summary, summaryRow{res.ID, res.Title, status, elapsed})
	}
	if *asJSON {
		report.TotalMS = time.Since(suiteStart).Milliseconds()
		report.Failures = failures
		enc := json.NewEncoder(jsonOut)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
		if failures > 0 {
			if *refresh {
				return fmt.Errorf("%d experiment(s) did not reproduce; baseline NOT written", failures)
			}
			return fmt.Errorf("%d experiment(s) did not reproduce", failures)
		}
		if *refresh {
			tmp := *baseline + ".tmp"
			if err := os.WriteFile(tmp, refreshBuf.Bytes(), 0o644); err != nil {
				return err
			}
			if err := os.Rename(tmp, *baseline); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "popbench: wrote %s\n", *baseline)
		}
		return nil
	}
	if len(summary) > 1 {
		if *markdown {
			fmt.Println("### Suite summary")
			fmt.Println()
			fmt.Println("| experiment | status | time |")
			fmt.Println("| --- | --- | --- |")
			for _, r := range summary {
				fmt.Printf("| %s — %s | %s | %s |\n", r.id, r.title, r.status, r.elapsed)
			}
			fmt.Println()
		} else {
			fmt.Println("=== suite summary ===")
			for _, r := range summary {
				fmt.Printf("%-4s %-10s %10s  %s\n", r.id, r.status, r.elapsed, r.title)
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) did not reproduce", failures)
	}
	return nil
}

// outcome is one experiment's result and wall time.
type outcome struct {
	res     *experiment.Result
	err     error
	elapsed time.Duration
}

// runConcurrently executes up to workers experiments at once (at least
// one), starting them in order, and returns one channel per experiment that
// delivers its outcome, so the caller reports in the given order whatever
// order they finish in. Experiments share no state; each still runs its
// own trials on cfg.Workers goroutines. Closing stop starts no further
// experiment (a caller that gives up after an error); the ones running
// finish and deliver into their buffered channels unread.
func runConcurrently(exps []*experiment.Experiment, cfg experiment.Config, workers int, stop <-chan struct{}) []chan outcome {
	outs := make([]chan outcome, len(exps))
	for i := range outs {
		outs[i] = make(chan outcome, 1)
	}
	slots := make(chan struct{}, max(workers, 1))
	go func() {
		for i, e := range exps {
			select {
			case slots <- struct{}{}:
			case <-stop:
				return
			}
			go func() {
				defer func() { <-slots }()
				start := time.Now()
				res, err := e.Execute(cfg)
				outs[i] <- outcome{res, err, time.Since(start).Round(time.Millisecond)}
			}()
		}
	}()
	return outs
}

// printMarkdown renders a result as a markdown section with pipe tables.
func printMarkdown(res *experiment.Result, elapsed time.Duration) {
	fmt.Printf("### %s — %s\n\n", res.ID, res.Title)
	fmt.Printf("**Claim.** %s\n\n", res.Claim)
	fmt.Printf("**Verdict.** %s *(ran in %s)*\n\n", res.Verdict, elapsed)
	for _, t := range res.Tables {
		if t.Title != "" {
			fmt.Printf("*%s*\n\n", t.Title)
		}
		fmt.Printf("| %s |\n", strings.Join(t.Cols, " | "))
		seps := make([]string, len(t.Cols))
		for i := range seps {
			seps[i] = "---"
		}
		fmt.Printf("| %s |\n", strings.Join(seps, " | "))
		for _, row := range t.Rows {
			fmt.Printf("| %s |\n", strings.Join(row, " | "))
		}
		fmt.Println()
	}
	for _, n := range res.Notes {
		fmt.Printf("> %s\n\n", n)
	}
}
