package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"lla/internal/admit"
	"lla/internal/core"
	"lla/internal/recover"
	"lla/internal/share"
	"lla/internal/task"
	"lla/internal/utility"
	"lla/internal/workload"
)

// churnTemplates are the churn experiment's three task shapes ("burst" only
// fits on uncongested resources).
var churnTemplates = []workload.ChurnTemplate{
	{Name: "web", CriticalMs: 120, StageExecMs: []float64{4, 3}, UtilityK: 2},
	{Name: "stream", CriticalMs: 90, StageExecMs: []float64{5, 4, 3}, UtilityK: 2},
	{Name: "burst", CriticalMs: 17, StageExecMs: []float64{6, 5}, UtilityK: 2},
}

const (
	// churnCPUs is the pool size: 16 unit CPUs.
	churnCPUs = 16
	// churnTol is the feasibility tolerance the admission controller keeps
	// (admit.Config.Tol's default): an event after which the live engine
	// overloads a resource or overruns a critical time by more counts as
	// failed.
	churnTol = 1e-3
	// churnCheckpointEvery is how many events pass between checkpoint
	// round trips.
	churnCheckpointEvery = 100
	// churnWarmups is how many untimed set-ups the run makes before its
	// first replay.
	churnWarmups = 20
	// churnSetupEvery is how many events pass between the extra set-ups a
	// replay times and closes again, on top of the set-up of its own live
	// system. Spread over the whole run, the set-up samples share its heap
	// and machine state with the decisions instead of one burst at start.
	churnSetupEvery = 25
	// churnEventsPerSecond sizes a run: it replays this many events per
	// second of --seconds, about what a 2-vCPU Xeon at 2.1 GHz decides in
	// that time. A fixed count, not a deadline, ends the replay, so every
	// run of a seed decides the same events and reports the same attempted
	// and failed operations however fast the machine is.
	churnEventsPerSecond = 1100
	// churnWallFactor caps a run's replay at this many times --seconds, so
	// that a machine far slower than the reference still ends in time; a
	// run cut by it says so in its notes.
	churnWallFactor = 4
)

// churnTrialBudget is the admission controller's default TrialIters, which
// also caps every live re-convergence.
var churnTrialBudget = admit.Config{}.WithDefaults().TrialIters

// churnTrace is replay r's seeded arrival/departure trace: arrivals every
// 5 ms and lifetimes of 1000 ms (both exponential means) over a 20 s
// horizon, about 200 tasks offered at a time to a pool that holds fewer.
// Every replay of a run gets its own trace, so a run averages over as many
// distinct traces as it has time for.
func churnTrace(seed int64, r int) ([]workload.ChurnEvent, error) {
	return workload.GenerateChurn(workload.ChurnConfig{
		Seed:               seed*1000 + int64(r),
		MeanInterarrivalMs: 5,
		MeanLifetimeMs:     1000,
		HorizonMs:          20000,
		Templates:          churnTemplates,
	})
}

// churnPool is the static substrate: churnCPUs unit CPUs and one resident
// base pipeline (an engine needs at least one task).
func churnPool() *workload.Workload {
	base := task.NewBuilder("base", 150).
		Trigger(task.Periodic(100)).
		Subtask("base-s0", "r0", 4).
		Subtask("base-s1", "r1", 3).
		Subtask("base-s2", "r2", 4).
		Chain("base-s0", "base-s1", "base-s2").
		MustBuild()
	w := &workload.Workload{
		Name:   "online-churn",
		Tasks:  []*task.Task{base},
		Curves: map[string]utility.Curve{"base": utility.Linear{K: 2, CMs: 150}},
	}
	for i := 0; i < churnCPUs; i++ {
		w.Resources = append(w.Resources, share.Resource{ID: fmt.Sprintf("r%d", i), Kind: share.CPU, Availability: 1, LagMs: 1})
	}
	return w
}

// churnLive is one live system: a warm engine under an admission controller
// with the price-guided placer.
type churnLive struct {
	eng  *core.Engine
	ctrl *admit.Controller
}

// newChurnLive builds the pool's engine, converges it, and attaches the
// controller: the workload's set-up.
func newChurnLive() (*churnLive, error) {
	eng, err := core.NewEngine(churnPool(), core.Config{})
	if err != nil {
		return nil, fmt.Errorf("building the churn engine: %w", err)
	}
	if _, ok := eng.RunUntilConverged(3000, 1e-7, 20, churnTol); !ok {
		eng.Close()
		return nil, fmt.Errorf("the churn pool did not converge before the replay")
	}
	ctrl := admit.New(eng, admit.Config{})
	ctrl.UsePlacer(admit.NewPlacer(admit.PlacerConfig{}))
	return &churnLive{eng: eng, ctrl: ctrl}, nil
}

// churnStats accumulates one run's decisions.
type churnStats struct {
	decisionMs, offerMs, removeMs, rebalanceMs []float64
	captureMs, encodeMs, decodeMs, restoreMs   []float64
	checkpointKB                               []float64
	utility                                    []float64
	offered, admitted, violating, capped       int
	rejected                                   map[string]int
	trialIters, trials                         int
	reconvIters, enacted                       int
	residentMax                                int
	skipSolves, execSolves                     uint64
}

// runChurn replays churn traces through the admission controller, one event
// at a time, until it has decided the run's churnEventsPerSecond·seconds
// events. Each replay starts from a fresh live system on the next trace of
// the seed.
func runChurn(rc runConfig, tr *tracer) (*report, error) {
	rep := newReport()
	st := &churnStats{rejected: make(map[string]int)}
	var setupS []float64
	setup := func() (*churnLive, error) {
		t0 := time.Now()
		live, err := newChurnLive()
		setupS = append(setupS, time.Since(t0).Seconds())
		return live, err
	}
	spare := func() error {
		live, err := setup()
		if err != nil {
			return err
		}
		live.eng.Close()
		return nil
	}
	for i := 0; i < churnWarmups; i++ {
		if err := spare(); err != nil {
			return nil, err
		}
	}
	setupS = setupS[:0]

	budget := max(1, int(math.Round(rc.seconds*churnEventsPerSecond)))
	wall := time.Now().Add(churnWallFactor * rc.duration())
	events, replays, cut := 0, 0, false
	for events < budget && !cut {
		trace, err := churnTrace(rc.seed, replays)
		if err != nil {
			return nil, fmt.Errorf("generating the churn trace: %w", err)
		}
		live, err := setup()
		if err != nil {
			return nil, err
		}
		replays++
		for _, ev := range trace {
			if events == budget {
				break
			}
			if events > 0 && !time.Now().Before(wall) {
				cut = true
				break
			}
			events++
			if err := churnEvent(rep, st, tr, live, ev, rc.seed, events); err != nil {
				live.eng.Close()
				return nil, err
			}
			if events%churnSetupEvery == 0 {
				if err := spare(); err != nil {
					live.eng.Close()
					return nil, err
				}
			}
		}
		ss := live.eng.SparseStats()
		st.skipSolves += ss.SkippedSolves
		st.execSolves += ss.ExecutedSolves
		live.eng.Close()
	}

	rep.opLatency("decision", st.decisionMs)
	rep.e2e["setup_s"] = median(setupS)
	rep.e2e["peak_rss_mb"] = peakRSSMB()
	mean := 0.0
	for _, u := range st.utility {
		mean += u
	}
	rep.e2e["utility"] = mean / float64(len(st.utility))

	rep.layer["core.sparse_skip_frac"] = frac(int(st.skipSolves), int(st.skipSolves+st.execSolves))
	rep.layer["core.resident_tasks_max"] = float64(st.residentMax)
	rep.layer["admit.offer_ms_p50"] = orZero(median(st.offerMs))
	rep.layer["admit.offer_ms_p99"] = orZero(percentile(append([]float64(nil), st.offerMs...), 99))
	rep.layer["admit.remove_ms_p50"] = orZero(median(st.removeMs))
	rep.layer["admit.rebalance_ms_p50"] = orZero(median(st.rebalanceMs))
	rep.layer["admit.trial_iters"] = float64(st.trialIters) / float64(max(st.trials, 1))
	rep.layer["admit.reconverge_iters"] = float64(st.reconvIters) / float64(max(st.enacted, 1))
	rep.layer["admit.reconverge_capped"] = float64(st.capped)
	rep.layer["admit.rejected_static"] = float64(st.rejected[admit.StageStatic] + st.rejected[admit.StagePlace])
	rep.layer["admit.rejected_price"] = float64(st.rejected[admit.StagePrice])
	rep.layer["admit.rejected_trial"] = float64(st.rejected[admit.StageTrial])
	rep.layer["admit.rejected_quarantine"] = float64(st.rejected[admit.StageQuarantine])
	rep.layer["admit.admitted_frac"] = frac(st.admitted, st.offered)
	rep.layer["admit.violating_events"] = float64(st.violating)
	rep.layer["recover.capture_ms"] = orZero(median(st.captureMs))
	rep.layer["recover.encode_ms"] = orZero(median(st.encodeMs))
	rep.layer["recover.decode_ms"] = orZero(median(st.decodeMs))
	rep.layer["recover.restore_ms"] = orZero(median(st.restoreMs))
	rep.layer["recover.checkpoint_kb"] = orZero(median(st.checkpointKB))
	rep.notef("online-churn: %d events replayed over %d traces; offered %d, admitted %d (%.3f), %d events left the engine infeasible",
		events, replays, st.offered, st.admitted, frac(st.admitted, st.offered), st.violating)
	if cut {
		rep.notef("online-churn: replay cut after %d of %d events at %d×--seconds; attempted and failed are not comparable with a full run", events, budget, churnWallFactor)
	}
	rep.notef("restore latency p50 %.3f ms over %d checkpoints", median(st.restoreMs), len(st.restoreMs))
	return rep, nil
}

// churnEvent applies one trace event and the rebalance opportunity that
// follows it, timing the pair as one decision, then checks the live
// engine's feasibility and, every churnCheckpointEvery events, runs a
// checkpoint round trip. Only harness errors are returned; an event the
// program fails is recorded in rep.ops.
func churnEvent(rep *report, st *churnStats, tr *tracer, live *churnLive, ev workload.ChurnEvent, seed int64, n int) error {
	op := tr.op()
	defer tr.finishOp()
	var cand admit.Candidate
	if ev.Arrival {
		tpl := churnTemplates[ev.Template]
		placeholder := make([]string, len(tpl.StageExecMs))
		for i := range placeholder {
			placeholder[i] = "r0" // the placer rebinds every stage
		}
		t, curve, err := tpl.Instantiate(ev.Name, placeholder)
		if err != nil {
			return fmt.Errorf("instantiating %s: %w", ev.Name, err)
		}
		cand = admit.Candidate{Task: t, Curve: curve}
	}

	var d admit.Decision
	var err error
	t0 := time.Now()
	id, s0 := tr.begin()
	if ev.Arrival {
		d, err = live.ctrl.OfferPlaced(cand)
		st.offerMs = append(st.offerMs, ms(time.Since(t0)))
		tr.end("admit.offer", id, 0, op, s0)
	} else {
		d, err = live.ctrl.Remove(ev.Name)
		st.removeMs = append(st.removeMs, ms(time.Since(t0)))
		tr.end("admit.remove", id, 0, op, s0)
	}
	reason := ""
	if err != nil {
		reason = fmt.Sprintf("event %d (%s): %v", n, ev.Name, err)
	}
	t1 := time.Now()
	id, s1 := tr.begin()
	rd, moved, rerr := live.ctrl.MaybeRebalance()
	tr.end("admit.rebalance", id, 0, op, s1)
	if moved {
		st.rebalanceMs = append(st.rebalanceMs, ms(time.Since(t1)))
	}
	st.decisionMs = append(st.decisionMs, ms(time.Since(t0)))
	if rerr != nil && reason == "" {
		reason = fmt.Sprintf("rebalance after event %d: %v", n, rerr)
	}

	if err == nil {
		st.countDecision(d, ev.Arrival)
	}
	if rerr == nil && moved {
		st.countDecision(rd, false)
	}
	pr := live.eng.Probe()
	st.utility = append(st.utility, pr.Utility)
	st.residentMax = max(st.residentMax, len(live.eng.Problem().Tasks))
	if reason == "" && (pr.MaxResourceViolation > churnTol || pr.MaxPathViolationFrac > churnTol) {
		st.violating++
		reason = fmt.Sprintf("event %d (%s): live engine infeasible, capacity over by %.3g, critical path over by %.3g",
			n, ev.Name, pr.MaxResourceViolation, pr.MaxPathViolationFrac)
	}
	rep.ops.record(reason)

	if n%churnCheckpointEvery == 0 {
		rep.ops.record(checkpointRoundTrip(st, tr, live, seed, op))
	}
	return nil
}

// countDecision tallies an admission decision's gate and iteration counts.
func (st *churnStats) countDecision(d admit.Decision, arrival bool) {
	if arrival {
		st.offered++
		if d.Admitted {
			st.admitted++
		} else {
			st.rejected[d.Stage]++
		}
	}
	if d.TrialIters > 0 {
		st.trials++
		st.trialIters += d.TrialIters
	}
	if d.Admitted {
		st.enacted++
		st.reconvIters += d.ReconvergeIters
		if d.ReconvergeIters >= churnTrialBudget {
			st.capped++
		}
	}
}

// checkpointRoundTrip captures the live system, encodes, decodes and
// restores it, and checks the restored engine's state equals the live
// one's. It returns "" or why the round trip failed.
func checkpointRoundTrip(st *churnStats, tr *tracer, live *churnLive, seed, op int64) string {
	cid, cs := tr.begin()
	defer tr.end("recover.checkpoint", cid, 0, op, cs)
	step := func(name string, dst *[]float64, f func() error) error {
		id, s := tr.begin()
		t0 := time.Now()
		err := f()
		*dst = append(*dst, ms(time.Since(t0)))
		tr.end(name, id, cid, op, s)
		return err
	}
	var cp, back *recover.Checkpoint
	var raw []byte
	var restored *core.Engine
	step("recover.capture", &st.captureMs, func() error {
		cp = recover.Capture(live.eng, recover.CaptureOptions{Seed: seed, Admit: live.ctrl})
		return nil
	})
	if err := step("recover.encode", &st.encodeMs, func() (err error) {
		raw, err = cp.Encode()
		return err
	}); err != nil {
		return fmt.Sprintf("encoding the checkpoint: %v", err)
	}
	st.checkpointKB = append(st.checkpointKB, float64(len(raw))/1024)
	if err := step("recover.decode", &st.decodeMs, func() (err error) {
		back, err = recover.Decode(raw)
		return err
	}); err != nil {
		return fmt.Sprintf("decoding the checkpoint: %v", err)
	}
	if err := step("recover.restore", &st.restoreMs, func() (err error) {
		restored, err = recover.Restore(back, core.Config{})
		return err
	}); err != nil {
		return fmt.Sprintf("restoring the checkpoint: %v", err)
	}
	defer restored.Close()
	if !reflect.DeepEqual(restored.CaptureState(), live.eng.CaptureState()) {
		return "restored engine state differs from the live engine's"
	}
	return ""
}
