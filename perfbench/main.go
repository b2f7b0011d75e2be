// Command perfbench is the repository's benchmark: it runs one named
// workload end to end through the public entry points of the engine
// (popstab.Session), the job server (serve.Manager behind serve.NewHandler)
// and the federation layer (cluster.Coordinator behind cluster.NewHandler,
// with workers behind httptest servers in this process), checks the outputs,
// and prints one JSON result line.
//
//	bash perfbench/run.sh --workload mixed-greedy --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - mixed-greedy: the paper protocol on the well-mixed topology,
//     N = 2^18, Tinner 36, the greedy adversary paced at MaxTolerableK
//     alterations per epoch; the engine's per-agent phases dominate.
//   - torus-patch: the same protocol on the torus under the patch-combo
//     spatial adversary; the spatial matching pipeline dominates.
//   - fleet-sweep: a coordinator and two workers driven by a closed loop of
//     two clients, each repeating submit → wait → snapshot → restore → wait
//     over many small sessions; one submission in four is a dedupe hit.
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the per-layer metrics, taken from the engine's RoundStats/MatchStats and
// from wrappers this program installs at the layer boundaries. A metric of a
// layer the workload does not exercise reads 0. The line before the result
// describes the run: host, seed, canonical specs, sample counts, exact work
// counters and any failed check.
//
// The sim.* and match.* times are per-round means of RoundStats and
// MatchStats deltas over the traced window; sim.unattributed_ns is a round's
// wall time minus its critical path, adversary + max(compose, match) + step
// + kill_fold + apply. The *.speedup.* ratios divide the phase times of a
// Workers-1 replay of the same rounds by those at Workers = nproc. On
// fleet-sweep, serve.handler_ms.* are worker handler times per call (for
// wait, the calls on a session already done, which hold nothing),
// serve.wait_hold_ms the blocking long-polls, cluster.handler_ms the
// coordinator's time per call outside its proxied calls, and
// cluster.proxy_ms a proxied round trip minus the worker handler inside it.
// The ledger.* parts are means per client loop and add up to ledger.loop_ms.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"sort"

	"popstab"
)

// A run at defaultSeed for defaultSeconds has its exact counters and
// snapshot digest recorded in golden.json.
const (
	defaultSeed    = 1
	defaultSeconds = 10
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. An "op" is one
// Session.Step(1) round on the engine workloads and one session —
// submission to done, as the client sees it — on fleet-sweep.
var endToEnd = []metricDef{
	{"agentsteps_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"live_heap_mb", "MiB"},
}

// perLayer are the traced run's metrics, by layer.
var perLayer = []metricDef{
	{"sim.adversary_ns", "ns"},
	{"sim.compose_ns", "ns"},
	{"sim.match_ns", "ns"},
	{"sim.step_ns", "ns"},
	{"sim.apply_ns", "ns"},
	{"sim.unattributed_ns", "ns"},
	{"sim.allocs_per_round", "count"},
	{"sim.alloc_bytes_per_round", "B"},
	{"sim.speedup.adversary", "x"},
	{"sim.speedup.compose", "x"},
	{"sim.speedup.match", "x"},
	{"sim.speedup.step", "x"},
	{"sim.speedup.apply", "x"},
	{"sim.speedup.round", "x"},
	{"match.bucket_ns", "ns"},
	{"match.scatter_ns", "ns"},
	{"match.cand_ns", "ns"},
	{"match.walk_ns", "ns"},
	{"match.conflict_rate", "ratio"},
	{"match.spec_walks", "count"},
	{"match.serial_walks", "count"},
	{"match.speedup.bucket", "x"},
	{"match.speedup.scatter", "x"},
	{"match.speedup.cand", "x"},
	{"match.speedup.walk", "x"},
	{"adversary.turn_ns", "ns"},
	{"adversary.alterations", "count"},
	{"population.census_ms", "ms"},
	{"population.births", "count"},
	{"population.deaths", "count"},
	{"wire.snapshot_ns_per_agent", "ns"},
	{"wire.restore_ns_per_agent", "ns"},
	{"wire.snapshot_bytes_per_agent", "B"},
	{"serve.handler_ms.submit", "ms"},
	{"serve.handler_ms.wait", "ms"},
	{"serve.handler_ms.snapshot", "ms"},
	{"serve.handler_ms.restore", "ms"},
	{"serve.wait_hold_ms", "ms"},
	{"serve.checkpoint_put_ms", "ms"},
	{"serve.sim_runs", "count"},
	{"serve.dedupe_hits", "count"},
	{"serve.checkpoints", "count"},
	{"cluster.handler_ms", "ms"},
	{"cluster.proxy_ms", "ms"},
	{"cluster.dedupe_hits", "count"},
	{"ledger.loop_ms", "ms"},
	{"ledger.coord_self_ms", "ms"},
	{"ledger.proxy_ms", "ms"},
	{"ledger.worker_self_ms", "ms"},
	{"ledger.hold_ms", "ms"},
	{"ledger.engine_ms", "ms"},
	{"ledger.unattributed_ms", "ms"},
	{"obs.trace_overhead", "x"},
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// The servers' access log lines go to stderr, and only above Info, so
	// standard output stays machine-parseable.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))

	rep := newReport(o)
	if engine, ok := engineWorkloads[o.workload]; ok {
		err = runEngine(engine, o, rep)
	} else {
		err = runFleet(o, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "mixed-greedy, torus-patch or fleet-sweep")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", defaultSeconds, "length of the timed window")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if _, ok := engineWorkloads[*workload]; !ok && *workload != fleetWorkload {
		return options{}, fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 {
		return options{}, fmt.Errorf("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1")
	}
	return options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}, nil
}

// report accumulates one run's metrics, checks and description.
type report struct {
	o         options
	attempted int64
	failed    int64
	failures  []string
	metrics   map[string]float64
	samples   map[string]int
	info      map[string]any
}

func newReport(o options) *report {
	return &report{
		o:       o,
		metrics: make(map[string]float64),
		samples: make(map[string]int),
		info: map[string]any{
			"workload":   o.workload,
			"seed":       o.seed,
			"seconds":    o.seconds,
			"trace":      o.trace,
			"num_cpu":    runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(),
		},
	}
}

// check counts one attempted operation or check, failed unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// set records a metric value.
func (r *report) set(name string, v float64) { r.metrics[name] = v }

// sampled records the sample count behind a timing.
func (r *report) sampled(name string, n int) { r.samples[name] = n }

// describeSpec records a workload's canonical spec.
func describeSpec(rep *report, spec popstab.Spec) error {
	norm, err := spec.Normalize()
	if err != nil {
		return err
	}
	rep.info["spec"] = norm
	return nil
}

// write prints the description line and then the result line.
func (r *report) write(w io.Writer) error {
	defs := endToEnd
	if r.o.trace {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]metric, len(defs))
	var idle []string
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			if !r.o.trace {
				return fmt.Errorf("end-to-end metric %s was not measured", d.name)
			}
			idle = append(idle, d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	sort.Strings(idle)
	r.info["idle_layers"] = idle
	r.info["samples"] = r.samples
	r.info["failures"] = r.failures
	desc, err := json.Marshal(map[string]any{"perfbench": r.info})
	if err != nil {
		return err
	}
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", desc, res)
	return err
}
