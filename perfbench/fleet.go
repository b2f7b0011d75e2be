package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"popstab"
	"popstab/internal/cluster"
	"popstab/internal/obs"
	"popstab/internal/serve"
)

const (
	fleetWorkload = "fleet-sweep"
	fleetN        = 4096
	fleetTinner   = 24 // epoch = 216 rounds
	fleetRounds   = 480
	fleetClients  = 2
	fleetWorkers  = 2
	// loopsPerSecond sizes the fixed schedule: each client runs
	// loopsPerSecond × --seconds loops, about --seconds of work on a 2-CPU
	// host. A fixed schedule keeps every server-side counter exact.
	loopsPerSecond    = 4
	fleetWarmupRounds = 48
	waitQuery         = "?status=done&timeout=60s"
)

func fleetSpec(seed uint64) popstab.Spec {
	return popstab.Spec{
		N: fleetN, Tinner: fleetTinner,
		Adversary: "greedy", K: 1, PerEpochBudget: maxTolerableK(fleetN, fleetTinner),
		Seed: seed,
	}
}

// loopPlan is one client loop: the spec it submits, and for a repeat the
// index of the client's earlier loop that submitted the same spec.
type loopPlan struct {
	spec     popstab.Spec
	repeatOf int
}

// fleetPlan is client c's schedule, a pure function of the seed: every
// fourth loop repeats one of the client's earlier fresh specs.
func fleetPlan(seed uint64, c, loops int) []loopPlan {
	rng := seed ^ uint64(c+1)*0x9e3779b97f4a7c15
	plan := make([]loopPlan, loops)
	var fresh []int
	for i := range plan {
		if i%4 == 3 {
			j := fresh[splitmix(&rng)%uint64(len(fresh))]
			plan[i] = loopPlan{spec: plan[j].spec, repeatOf: j}
			continue
		}
		plan[i] = loopPlan{spec: fleetSpec(splitmix(&rng)), repeatOf: -1}
		fresh = append(fresh, i)
	}
	return plan
}

func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fleet is an in-process coordinator with its workers, each behind an
// httptest server. log is nil when the fleet runs untraced.
type fleet struct {
	drained  bool
	log      *spanLog
	coord    *cluster.Coordinator
	coordSrv *httptest.Server
	managers []*serve.Manager
	servers  []*httptest.Server
}

func startFleet(traced bool) (*fleet, error) {
	f := &fleet{}
	client := &http.Client{}
	if traced {
		f.log = newSpanLog()
		client.Transport = timedTransport{base: http.DefaultTransport.(*http.Transport).Clone(), log: f.log}
	}
	// No sweep loop: membership is static, so nothing needs heartbeats.
	f.coord = cluster.NewCoordinator(cluster.Config{SweepInterval: -1, Client: client})
	var h http.Handler = cluster.NewHandler(f.coord)
	if traced {
		h = f.log.handler(h, coordField)
	}
	f.coordSrv = httptest.NewServer(h)
	for i := 0; i < fleetWorkers; i++ {
		var store serve.CheckpointStore = serve.NewMemStore()
		if traced {
			store = timedStore{CheckpointStore: store, log: f.log}
		}
		// Two slots per worker: with one, the two clients' sessions queued
		// behind each other on a shared worker in a seed-dependent share
		// of loops, and the latency tail flipped between two modes.
		m := serve.NewManager(serve.Config{MaxConcurrent: fleetClients, Store: store})
		var wh http.Handler = serve.NewHandler(m)
		if traced {
			wh = f.log.handler(wh, workerField)
		}
		srv := httptest.NewServer(wh)
		f.managers = append(f.managers, m)
		f.servers = append(f.servers, srv)
		if _, err := f.coord.Register(cluster.RegisterRequest{URL: srv.URL, Readiness: m.Readiness()}); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// drain stops the workers' managers; their counters are final afterwards.
func (f *fleet) drain() error {
	if f.drained {
		return nil
	}
	f.drained = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, m := range f.managers {
		if err := m.Shutdown(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleet) close() {
	f.coordSrv.Close()
	f.coord.Close()
	_ = f.drain() // on a timeout the servers close anyway
	for _, s := range f.servers {
		s.Close()
	}
}

// fleetClient speaks the /v1 API to the coordinator. Traced clients tag
// each call with a fresh trace ID.
type fleetClient struct {
	base   string
	hc     *http.Client
	traced bool
	ids    *atomic.Uint64
}

// callRec is one HTTP call of a loop.
type callRec struct {
	kind  string // submit, wait, snapshot, restore
	trace string
	// idle marks a wait on a session that was already done.
	idle bool
}

// loopRec is what a client saw of one loop.
type loopRec struct {
	plan       loopPlan
	start, end time.Time
	calls      []callRec
	sessionMS  []float64
	deduped    bool
	fresh      popstab.SessionStats
	restored   popstab.SessionStats
	snapSHA    string
	snapBytes  int
	err        error
}

func (c *fleetClient) do(ctx context.Context, rec *loopRec, call callRec, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.traced {
		call.trace = fmt.Sprintf("%016x", c.ids.Add(1))
		req.Header.Set(obs.TraceHeader, call.trace)
	}
	rec.calls = append(rec.calls, call)
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// submitAndWait submits req and long-polls the session to done, returning
// its final stats and ID.
func (c *fleetClient) submitAndWait(ctx context.Context, rec *loopRec, kind string, req serve.SubmitRequest) (serve.SubmitResponse, popstab.SessionStats, error) {
	start := time.Now()
	var sub serve.SubmitResponse
	if err := c.do(ctx, rec, callRec{kind: kind}, http.MethodPost, "/v1/sessions", req, &sub); err != nil {
		return sub, popstab.SessionStats{}, err
	}
	var wr serve.WaitResponse
	idle := sub.Info.Status == serve.StatusDone
	if err := c.do(ctx, rec, callRec{kind: "wait", idle: idle}, http.MethodGet, "/v1/sessions/"+sub.ID+"/wait"+waitQuery, nil, &wr); err != nil {
		return sub, popstab.SessionStats{}, err
	}
	if !wr.Reached || wr.Info.Status != serve.StatusDone {
		return sub, popstab.SessionStats{}, fmt.Errorf("session %s ended %s, not done: %s", sub.ID, wr.Info.Status, wr.Info.Error)
	}
	rec.sessionMS = append(rec.sessionMS, ms(time.Since(start)))
	return sub, wr.Info.Stats, nil
}

// runLoop submits, waits, snapshots, restores with as many rounds again
// and waits again.
func (c *fleetClient) runLoop(ctx context.Context, plan loopPlan, rounds uint64) loopRec {
	rec := loopRec{plan: plan, start: time.Now()}
	rec.err = c.loopCalls(ctx, &rec, rounds)
	rec.end = time.Now()
	return rec
}

func (c *fleetClient) loopCalls(ctx context.Context, rec *loopRec, rounds uint64) error {
	sub, stats, err := c.submitAndWait(ctx, rec, "submit", serve.SubmitRequest{Spec: rec.plan.spec, Rounds: rounds})
	if err != nil {
		return err
	}
	rec.deduped, rec.fresh = sub.Deduped, stats
	var snap serve.SnapshotResponse
	if err := c.do(ctx, rec, callRec{kind: "snapshot"}, http.MethodGet, "/v1/sessions/"+sub.ID+"/snapshot", nil, &snap); err != nil {
		return err
	}
	rec.snapSHA, rec.snapBytes = sha256Hex(snap.Snapshot), len(snap.Snapshot)
	_, rec.restored, err = c.submitAndWait(ctx, rec, "restore", serve.SubmitRequest{Spec: snap.Spec, Snapshot: snap.Snapshot, Rounds: rounds})
	return err
}

// runClients runs each client's plan as a closed loop and returns the
// loops in plan order with the window's wall time.
func runClients(f *fleet, plans [][]loopPlan) ([][]loopRec, time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	var ids atomic.Uint64
	recs := make([][]loopRec, len(plans))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range plans {
		cl := &fleetClient{base: f.coordSrv.URL, hc: f.coordSrv.Client(), traced: f.log != nil, ids: &ids}
		recs[c] = make([]loopRec, len(plans[c]))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range plans[c] {
				recs[c][i] = cl.runLoop(ctx, p, fleetRounds)
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(start)
}

// setupFleet starts a warmed fleet setupRepeats times, keeping the last,
// and returns each set-up's wall time in seconds.
func setupFleet(seed uint64, traced bool) (*fleet, []float64, error) {
	var f *fleet
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.close()
		}
		runtime.GC()
		start := time.Now()
		nf, err := startWarmFleet(seed, traced)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		f = nf
	}
	return f, times, nil
}

// startWarmFleet starts a fleet and runs one short session through it.
func startWarmFleet(seed uint64, traced bool) (*fleet, error) {
	f, err := startFleet(traced)
	if err != nil {
		return nil, err
	}
	cl := &fleetClient{base: f.coordSrv.URL, hc: f.coordSrv.Client()}
	req := serve.SubmitRequest{Spec: fleetSpec(seed ^ 0xfeedface), Rounds: fleetWarmupRounds}
	if _, _, err := cl.submitAndWait(context.Background(), &loopRec{}, "submit", req); err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return f, nil
}

func runFleet(o options, rep *report) error {
	loops := max(4, int(loopsPerSecond*float64(o.seconds)+0.5))
	plans := make([][]loopPlan, fleetClients)
	for c := range plans {
		plans[c] = fleetPlan(o.seed, c, loops)
	}
	if err := describeSpec(rep, plans[0][0].spec); err != nil {
		return err
	}
	rep.info["op"] = "one session, submission to done, as the client sees it"
	rep.info["schedule"] = map[string]int{"clients": fleetClients, "loops_per_client": loops, "rounds_per_session": fleetRounds}

	f, setups, err := setupFleet(o.seed, o.trace)
	if err != nil {
		return err
	}
	defer f.close()
	rep.set("setup_s", median(setups))

	recs, elapsed := runClients(f, plans)
	var sessionMS []float64
	var agentRounds float64
	exp := struct{ runs, dedupes uint64 }{runs: 1} // the warm-up session
	var births, deaths, alters, snapBytes, snapAgents uint64
	for c := range recs {
		for i, r := range recs[c] {
			rep.attempted += int64(len(r.calls))
			rep.check(r.err == nil, "client %d loop %d: %v", c, i, r.err)
			if r.err != nil {
				continue
			}
			sessionMS = append(sessionMS, r.sessionMS...)
			repeat := r.plan.repeatOf >= 0
			rep.check(r.deduped == repeat, "client %d loop %d: deduped = %v, want %v", c, i, r.deduped, repeat)
			if repeat {
				exp.dedupes++
				orig := recs[c][r.plan.repeatOf]
				rep.check(orig.err != nil || (r.fresh == orig.fresh && r.snapSHA == orig.snapSHA && r.restored == orig.restored),
					"client %d loop %d: dedupe hit differs from loop %d", c, i, r.plan.repeatOf)
			} else {
				exp.runs++
				agentRounds += fleetRounds * float64(fleetN+r.fresh.Size) / 2
				births += r.fresh.Births
				deaths += r.fresh.Deaths
				alters += alterations(r.fresh)
			}
			exp.runs++ // the restore
			agentRounds += fleetRounds * float64(r.fresh.Size+r.restored.Size) / 2
			births += r.restored.Births - r.fresh.Births
			deaths += r.restored.Deaths - r.fresh.Deaths
			alters += alterations(r.restored) - alterations(r.fresh)
			snapBytes += uint64(r.snapBytes)
			snapAgents += uint64(r.fresh.Size)
		}
	}
	rep.sampled("op_ms", len(sessionMS))
	rep.set("agentsteps_per_s", agentRounds/elapsed.Seconds())
	rep.set("op_ms_p50", median(sessionMS))
	rep.set("op_ms_p90", quantile(sessionMS, tailQuantile))
	rep.set("ops_per_s", float64(len(sessionMS))/elapsed.Seconds())
	rep.set("live_heap_mb", liveHeapMiB())

	var engine map[string]popstab.RoundStats
	if o.trace {
		engine = engineByTrace(f)
	}
	coordMetrics := f.coord.Metrics(context.Background())
	if err := f.drain(); err != nil {
		return err
	}
	var sm serve.Metrics
	for _, m := range f.managers {
		w := m.Metrics()
		sm.SimRuns += w.SimRuns
		sm.DedupeHits += w.DedupeHits
		sm.Checkpoints += w.Checkpoints
	}
	rep.check(sm.SimRuns == exp.runs, "workers ran %d engines, the clients started %d", sm.SimRuns, exp.runs)
	rep.check(coordMetrics.Coordinator.DedupeHits == exp.dedupes,
		"coordinator counted %d dedupe hits, the clients saw %d", coordMetrics.Coordinator.DedupeHits, exp.dedupes)
	rep.exact(map[string]string{
		"loops":               fmt.Sprint(fleetClients * loops),
		"population.births":   fmt.Sprint(births),
		"population.deaths":   fmt.Sprint(deaths),
		"adversary.alters":    fmt.Sprint(alters),
		"serve.sim_runs":      fmt.Sprint(sm.SimRuns),
		"serve.dedupe_hits":   fmt.Sprint(sm.DedupeHits),
		"serve.checkpoints":   fmt.Sprint(sm.Checkpoints),
		"cluster.dedupe_hits": fmt.Sprint(coordMetrics.Coordinator.DedupeHits),
		"snapshot.bytes":      fmt.Sprint(snapBytes),
		"snapshot.agents":     fmt.Sprint(snapAgents),
	})
	if !o.trace {
		return nil
	}

	rep.set("population.births", float64(births))
	rep.set("population.deaths", float64(deaths))
	rep.set("adversary.alterations", float64(alters))
	rep.set("serve.sim_runs", float64(sm.SimRuns))
	rep.set("serve.dedupe_hits", float64(sm.DedupeHits))
	rep.set("serve.checkpoints", float64(sm.Checkpoints))
	rep.set("cluster.dedupe_hits", float64(coordMetrics.Coordinator.DedupeHits))
	rep.set("wire.snapshot_bytes_per_agent", ratio(float64(snapBytes), float64(snapAgents)))
	fleetLayers(rep, f.log, recs, engine)

	// Tracing overhead: an untraced fleet runs the first half of the
	// schedule, and the traced median session time is set against the
	// untraced one.
	uf, err := startWarmFleet(o.seed, false)
	if err != nil {
		return err
	}
	defer uf.close()
	half := make([][]loopPlan, len(plans))
	for c := range plans {
		half[c] = plans[c][:max(4, loops/2)]
	}
	urecs, _ := runClients(uf, half)
	var untraced []float64
	for c := range urecs {
		for i, r := range urecs[c] {
			rep.attempted += int64(len(r.calls))
			rep.check(r.err == nil, "untraced client %d loop %d: %v", c, i, r.err)
			untraced = append(untraced, r.sessionMS...)
		}
	}
	rep.set("obs.trace_overhead", ratio(median(sessionMS), median(untraced)))
	return nil
}

// engineByTrace maps each worker job's submission trace ID to the job's
// final round-phase counters.
func engineByTrace(f *fleet) map[string]popstab.RoundStats {
	out := make(map[string]popstab.RoundStats)
	for _, m := range f.managers {
		for _, info := range m.List() {
			if j, ok := m.Get(info.ID); ok {
				out[j.Trace()] = out[j.Trace()].Add(j.RoundStats())
			}
		}
	}
	return out
}

// fleetLayers derives the per-layer metrics of a traced fleet run from the
// wrappers' spans and the workers' jobs, and the per-loop cost ledger:
// coordinator self time, proxy transport, worker handler self time,
// long-poll hold and engine compute, plus whatever the client saw beyond
// the coordinator's handler, add up to the loop's wall time.
func fleetLayers(rep *report, log *spanLog, recs [][]loopRec, engine map[string]popstab.RoundStats) {
	handler := map[string][]float64{}
	var hold, coordSelf, proxy []float64
	var snapNS, restoreNS []float64
	var sum popstab.RoundStats
	var led struct{ loop, coord, proxy, worker, hold, engine, rest float64 }
	n := 0
	for c := range recs {
		for _, r := range recs[c] {
			if r.err != nil {
				continue
			}
			n++
			var cs callSpans
			var holdD time.Duration
			var engineNS float64
			for _, call := range r.calls {
				s := log.get(call.trace)
				cs.coord += s.coord
				cs.proxy += s.proxy
				cs.worker += s.worker
				coordSelf = append(coordSelf, ms(s.coord-s.proxy))
				if s.proxy > 0 {
					proxy = append(proxy, ms(s.proxy-s.worker))
				}
				switch {
				case call.kind == "wait" && call.idle:
					handler["wait"] = append(handler["wait"], ms(s.worker))
				case call.kind == "wait":
					hold = append(hold, ms(s.worker))
				case call.kind == "submit" && r.deduped:
				default:
					handler[call.kind] = append(handler[call.kind], ms(s.worker))
				}
				if call.kind == "wait" {
					holdD += s.worker
				}
				if rs, ok := engine[call.trace]; ok {
					sum = sum.Add(rs)
					engineNS += criticalPathNS(rs, false)
				}
				agents := float64(r.fresh.Size)
				switch call.kind {
				case "snapshot":
					snapNS = append(snapNS, float64(s.worker.Nanoseconds())/agents)
				case "restore":
					restoreNS = append(restoreNS, float64(s.worker.Nanoseconds())/agents)
				}
			}
			loop := ms(r.end.Sub(r.start))
			led.loop += loop
			led.coord += ms(cs.coord - cs.proxy)
			led.proxy += ms(cs.proxy - cs.worker)
			led.worker += ms(cs.worker - holdD)
			led.hold += ms(holdD) - engineNS/1e6
			led.engine += engineNS / 1e6
			led.rest += loop - ms(cs.coord)
		}
	}
	for _, k := range []string{"submit", "wait", "snapshot", "restore"} {
		rep.set("serve.handler_ms."+k, median(handler[k]))
	}
	rep.set("serve.wait_hold_ms", median(hold))
	log.mu.Lock()
	rep.set("serve.checkpoint_put_ms", median(log.puts))
	rep.sampled("serve.checkpoint_put_ms", len(log.puts))
	log.mu.Unlock()
	rep.set("cluster.handler_ms", median(coordSelf))
	rep.set("cluster.proxy_ms", median(proxy))
	rep.set("wire.snapshot_ns_per_agent", median(snapNS))
	rep.set("wire.restore_ns_per_agent", median(restoreNS))
	rounds := float64(sum.Rounds)
	rep.set("sim.adversary_ns", ratio(float64(sum.AdversaryNS), rounds))
	rep.set("sim.compose_ns", ratio(float64(sum.ComposeNS), rounds))
	rep.set("sim.match_ns", ratio(float64(sum.MatchNS), rounds))
	rep.set("sim.step_ns", ratio(float64(sum.StepNS), rounds))
	rep.set("sim.apply_ns", ratio(float64(sum.ApplyNS), rounds))
	rep.set("sim.allocs_per_round", ratio(float64(sum.AllocObjects), rounds))
	rep.set("sim.alloc_bytes_per_round", ratio(float64(sum.AllocBytes), rounds))
	if n > 0 {
		k := float64(n)
		rep.set("ledger.loop_ms", led.loop/k)
		rep.set("ledger.coord_self_ms", led.coord/k)
		rep.set("ledger.proxy_ms", led.proxy/k)
		rep.set("ledger.worker_self_ms", led.worker/k)
		rep.set("ledger.hold_ms", led.hold/k)
		rep.set("ledger.engine_ms", led.engine/k)
		rep.set("ledger.unattributed_ms", led.rest/k)
	}
	rep.sampled("ledger.loops", n)
	rep.sampled("serve.handler_ms.wait", len(handler["wait"]))
	rep.sampled("serve.wait_hold_ms", len(hold))
	rep.sampled("cluster.proxy_ms", len(proxy))
}
