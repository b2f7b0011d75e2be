// Package experiment defines and runs the reproduction suite: one
// experiment per quantitative claim of the paper (E1–E17) plus design
// ablations and open-question probes (A1–A9), as indexed in DESIGN.md §4
// and reported in EXPERIMENTS.md.
//
// Every arm a popstab.Spec can express is one, built by popstab.New like
// any other client of the library. The rest need what no Spec names — a
// prepared population, a protocol ablation, a non-uniform scheduler, the
// Attempt 1 attacks, a drifting clock — and assemble a sim.Config.
//
// The paper is a theory result with no empirical tables or figures, so each
// "table/figure" here is a measurable statement extracted from a theorem,
// lemma, or discussion section. Every experiment runs at two scales: Quick
// (seconds; used by tests and the bench suite) and Full (minutes; used by
// cmd/popbench to regenerate EXPERIMENTS.md).
package experiment

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"popstab/internal/prng"
)

// Scale selects the cost/fidelity tradeoff of a run.
type Scale int

// Scales. Quick targets CI budgets; Full regenerates EXPERIMENTS.md.
const (
	// Quick runs in seconds at small N with few trials.
	Quick Scale = iota + 1
	// Full runs in minutes with larger N grids and more trials.
	Full
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case Quick:
		return "quick"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("scale(%d)", int(s))
	}
}

// Config parameterizes a suite run.
type Config struct {
	// Scale selects Quick or Full.
	Scale Scale
	// Seed derives all experiment randomness.
	Seed uint64
	// Workers bounds trial-level parallelism (≤ 0 means 1).
	Workers int
}

// Experiment is one reproducible claim.
type Experiment struct {
	// ID is the experiment identifier (E1…E17, A1…A7).
	ID string
	// Title is a short human name.
	Title string
	// Claim quotes or paraphrases the paper's statement.
	Claim string
	// Run executes the experiment and reports the result.
	Run func(cfg Config) (*Result, error)
}

// Execute runs the experiment and stamps the descriptor fields onto the
// result. Callers should prefer Execute over invoking Run directly.
func (e *Experiment) Execute(cfg Config) (*Result, error) {
	res, err := e.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", e.ID, err)
	}
	res.ID, res.Title, res.Claim = e.ID, e.Title, e.Claim
	return res, nil
}

// Result is the outcome of one experiment.
type Result struct {
	// ID, Title and Claim echo the experiment.
	ID, Title, Claim string
	// Verdict summarizes the comparison with the paper in one line, e.g.
	// "REPRODUCED: drift sign and magnitude scale as predicted".
	Verdict string
	// Tables hold the regenerated rows.
	Tables []Table
	// Notes carry caveats (finite-size effects, substitutions).
	Notes []string
}

// Table is one rendered block of rows.
type Table struct {
	// Title names the table.
	Title string
	// Cols are the column headers.
	Cols []string
	// Rows are the data cells (each row len(Cols) long).
	Rows [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render draws the table with aligned ASCII columns.
func (t *Table) Render(w *strings.Builder) {
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				w.WriteString("  ")
			}
			w.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				w.WriteString(strings.Repeat(" ", pad))
			}
		}
		w.WriteByte('\n')
	}
	if t.Title != "" {
		fmt.Fprintf(w, "-- %s --\n", t.Title)
	}
	line(t.Cols)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	w.WriteString(strings.Repeat("-", total))
	w.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
}

// Render formats the full result for terminal output.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	fmt.Fprintf(&b, "claim:   %s\n", r.Claim)
	fmt.Fprintf(&b, "verdict: %s\n", r.Verdict)
	for i := range r.Tables {
		b.WriteByte('\n')
		r.Tables[i].Render(&b)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// registry holds all experiments keyed by ID.
var registry = map[string]*Experiment{}

// register adds an experiment at package init time; duplicate IDs panic
// (programmer error caught by any test run).
func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiment: duplicate ID " + e.ID)
	}
	registry[e.ID] = e
}

// Lookup finds an experiment by ID.
func Lookup(id string) (*Experiment, bool) {
	e, ok := registry[strings.ToUpper(id)]
	return e, ok
}

// All returns the experiments sorted by ID (E-series first, then A-series).
func All() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return idLess(out[i].ID, out[j].ID) })
	return out
}

// idLess orders E1 < E2 < … < E16 < A1 < … (letter class first, then the
// numeric suffix).
func idLess(a, b string) bool {
	classRank := func(id string) int {
		if strings.HasPrefix(id, "E") {
			return 0
		}
		return 1
	}
	num := func(id string) int {
		n := 0
		for _, r := range id[1:] {
			if r < '0' || r > '9' {
				break
			}
			n = n*10 + int(r-'0')
		}
		return n
	}
	if ca, cb := classRank(a), classRank(b); ca != cb {
		return ca < cb
	}
	if na, nb := num(a), num(b); na != nb {
		return na < nb
	}
	return a < b
}

// RunTrials executes fn for trials independent trials in parallel, giving
// each a deterministic PRNG stream derived from seed, and returns the
// results in trial order.
func RunTrials(trials, workers int, seed uint64, fn func(trial int, src *prng.Source) float64) []float64 {
	if workers <= 0 {
		workers = 1
	}
	if workers > trials {
		workers = trials
	}
	out := make([]float64, trials)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = fn(i, prng.New(seed+uint64(i)*0x9e3779b97f4a7c15+1))
			}
		}()
	}
	for i := 0; i < trials; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// fmtF renders a float compactly for table cells.
func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10 || v <= -10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// fmtI renders an int for table cells.
func fmtI(v int) string { return fmt.Sprintf("%d", v) }
