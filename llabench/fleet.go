package main

import (
	"fmt"
	"runtime"
	"time"

	"lla/internal/core"
	"lla/internal/fleet"
	"lla/internal/workload"
)

// fleetShape is the 1M-subtask benchmark's clustered shape (16 clusters of
// 125 five-subtask chains over 500 resources each, 0.2% cross-cluster
// edges) at replication 2 instead of 100: 2e4 subtasks, so that a run
// certifies over 100 instances and its p90 has ten samples beyond it.
// Replication only stamps out copies of each cluster's 125 random tasks, so
// it scales the work without changing the problem's variety. SlackFactor
// keeps the 1M shape's ratio to the replication; a smaller one leaves the
// workload structurally infeasible.
func fleetShape(seed int64) workload.ClusteredConfig {
	cfg := workload.DefaultClusteredConfig(seed)
	cfg.Clusters = 16
	cfg.TasksPerCluster = 125
	cfg.ReplicateFactor = 2
	cfg.ResourcesPerCluster = 500
	cfg.MinSubtasks = 5
	cfg.MaxSubtasks = 5
	cfg.ChainOnly = true
	cfg.SlackFactor = 8
	cfg.CrossFraction = 0.002
	return cfg
}

// fleetShards is the shard count of the 1M benchmark.
const fleetShards = 16

// fleetMaxRounds caps one certification at the fleet's own default round
// budget; a run that reaches it without certifying counts as failed.
const fleetMaxRounds = 300

// fleetCoreReps is how many times the traced run times each standalone
// engine call, and fleetSetupReps how often it repeats Compile and
// NewPartition.
const (
	fleetCoreReps  = 200
	fleetSetupReps = 3
)

// runFleet certifies clustered workloads cold, one after another until the
// run's time is up. Certification k generates its own instance from the
// seed, builds a fresh fleet over it (fleet.New, the set-up) and drives
// Fleet.Round until the fleet reports itself certified. Instances differ in
// how many local iterations they need, so a run reports medians over as
// many of them as it has time for.
func runFleet(rc runConfig, tr *tracer) (*report, error) {
	fcfg := fleet.Config{Shards: fleetShards, Seed: rc.seed}

	rep := newReport()
	var setupS, certifyMs, roundMs, utility, rounds, localIters []float64
	var swept, skipped int
	var execSolves, skipSolves uint64
	var setupAlloc, runAlloc allocs
	var boundary []float64
	residentMax := 0

	var w *workload.Workload
	deadline := time.Now().Add(rc.duration())
	for len(certifyMs) == 0 || time.Now().Before(deadline) {
		// Start every instance from a collected heap, so the previous fleet's
		// garbage is neither collected inside the next one's timing nor
		// counted in its peak.
		w = nil
		runtime.GC()
		var err error
		w, err = workload.Clustered(fleetShape(rc.seed*1000 + int64(len(certifyMs))))
		if err != nil {
			return nil, fmt.Errorf("generating the clustered workload: %w", err)
		}
		op := tr.op()
		ph := newPhases()
		sid, sst := tr.begin()
		t0 := time.Now()
		f, err := fleet.New(w, fcfg)
		setup := time.Since(t0)
		tr.end("fleet.new", sid, 0, op, sst)
		if err != nil {
			return nil, fmt.Errorf("building the fleet: %w", err)
		}
		ph.mark("setup")

		converged := false
		var roundErr error
		n := 0
		t1 := time.Now()
		for n < fleetMaxRounds {
			rid, rst := tr.begin()
			r0 := time.Now()
			ok, err := f.Round()
			roundMs = append(roundMs, ms(time.Since(r0)))
			tr.end("fleet.round", rid, 0, op, rst)
			n++
			if err != nil {
				roundErr = err
				break
			}
			if ok {
				converged = true
				break
			}
		}
		certify := time.Since(t1)
		ph.mark("run")
		tr.finishOp()

		chk := checkFleet(f)
		reason := ""
		switch {
		case roundErr != nil:
			reason = fmt.Sprintf("round %d: %v", n, roundErr)
		case !converged:
			reason = fmt.Sprintf("not certified after %d rounds", n)
		default:
			reason = chk.violation(fleetTols)
		}
		rep.ops.record(reason)

		setupS = append(setupS, setup.Seconds())
		certifyMs = append(certifyMs, ms(certify))
		utility = append(utility, chk.utility)
		rounds = append(rounds, float64(n))
		st := f.Stats()
		swept += st.Swept
		skipped += st.Skipped
		iters := 0
		for s := 0; s < f.Shards(); s++ {
			e := f.Engine(s)
			iters += e.Iteration()
			ss := e.SparseStats()
			execSolves += ss.ExecutedSolves
			skipSolves += ss.SkippedSolves
			residentMax = max(residentMax, len(e.Problem().Tasks))
		}
		localIters = append(localIters, float64(iters))
		boundary = append(boundary, float64(len(f.Partition().Boundary)))
		sa, ra := ph.total["setup"], ph.total["run"]
		setupAlloc.Count += sa.Count
		setupAlloc.Bytes += sa.Bytes
		runAlloc.Count += ra.Count
		runAlloc.Bytes += ra.Bytes

		if tr != nil && len(certifyMs) == 1 {
			if err := fleetLayerProbes(rep, w, f, fcfg); err != nil {
				f.Close()
				return nil, err
			}
		}
		f.Close()
	}

	k := float64(len(certifyMs))
	rep.opLatency("certification", certifyMs)
	rep.e2e["setup_s"] = median(setupS)
	rep.e2e["peak_rss_mb"] = peakRSSMB()
	rep.e2e["utility"] = median(utility)
	rep.layer["fleet.rounds"] = median(rounds)
	rep.layer["fleet.round_ms_p50"] = median(roundMs)
	rep.layer["fleet.round_ms_max"] = percentile(roundMs, 100)
	rep.layer["fleet.local_iters"] = median(localIters)
	rep.layer["fleet.skip_frac"] = frac(skipped, swept+skipped)
	rep.layer["fleet.boundary_resources"] = median(boundary)
	rep.layer["fleet.setup_allocs"] = float64(setupAlloc.Count) / k
	rep.layer["fleet.setup_alloc_mb"] = float64(setupAlloc.Bytes) / k / (1 << 20)
	rep.layer["fleet.run_alloc_mb"] = float64(runAlloc.Bytes) / k / (1 << 20)
	rep.layer["core.sparse_skip_frac"] = frac(int(skipSolves), int(execSolves+skipSolves))
	rep.layer["core.resident_tasks_max"] = float64(residentMax)
	rep.notef("fleet-certify: %d certifications of %d tasks, %d subtasks on %d shards; median %.0f boundary resources, %.0f rounds, %.0f local iterations",
		len(certifyMs), len(w.Tasks), w.TotalSubtasks(), fleetShards, median(boundary), median(rounds), median(localIters))
	return rep, nil
}

// fleetTol holds the certification tolerances the fleet applies with its
// default configuration; the benchmark re-checks the certified state
// against the same values from outside.
type fleetTol struct{ kkt, path, capacity float64 }

var fleetTols = fleetTol{kkt: 1e-6, path: 1e-6, capacity: 1e-6}

// fleetCheck is the certified state as the benchmark measures it from the
// shard engines' public accessors.
type fleetCheck struct {
	kktMax      float64 // worst shard-local KKT residual
	pathViol    float64 // worst critical-path violation fraction
	overload    float64 // worst relative capacity overload over all resources, boundary ones summed across shards
	overloadRes string
	utility     float64
}

// checkFleet recomputes the certification quantities: every shard's KKT
// residual and path violation, and every resource's total demand across the
// shards that use it against its capacity.
func checkFleet(f *fleet.Fleet) fleetCheck {
	var c fleetCheck
	demand := make(map[string]float64)
	avail := make(map[string]float64)
	for s := 0; s < f.Shards(); s++ {
		e := f.Engine(s)
		kkt, _, _ := e.KKTStats()
		c.kktMax = max(c.kktMax, kkt)
		pr := e.Probe()
		c.pathViol = max(c.pathViol, pr.MaxPathViolationFrac)
		c.utility += pr.Utility
		p := e.Problem()
		for ri := range p.Resources {
			id := p.Resources[ri].ID
			demand[id] += e.ShareSumAt(ri)
			avail[id] = p.Resources[ri].Availability
		}
	}
	for id, d := range demand {
		if over := (d - avail[id]) / avail[id]; over > c.overload {
			c.overload, c.overloadRes = over, id
		}
	}
	return c
}

// violation names the first tolerance the checked state exceeds, or "".
func (c fleetCheck) violation(tol fleetTol) string {
	switch {
	case c.kktMax >= tol.kkt:
		return fmt.Sprintf("KKT residual %.3g over %.0g", c.kktMax, tol.kkt)
	case c.pathViol >= tol.path:
		return fmt.Sprintf("path violation %.3g over %.0g", c.pathViol, tol.path)
	case c.overload >= tol.capacity:
		return fmt.Sprintf("resource %s overloaded by %.3g", c.overloadRes, c.overload)
	}
	return ""
}

// fleetLayerProbes times, on the run's input, the set-up stages fleet.New
// runs internally (core.Compile, fleet.NewPartition) and the engine calls a
// shard sweep makes (Step, KKTStats, Probe) on a standalone engine built
// from shard 0's workload.
func fleetLayerProbes(rep *report, w *workload.Workload, f *fleet.Fleet, fcfg fleet.Config) error {
	mode := core.Config{}.WithDefaults().WeightMode
	var compileMs, partitionMs []float64
	for i := 0; i < fleetSetupReps; i++ {
		t0 := time.Now()
		p, err := core.Compile(w, mode)
		compileMs = append(compileMs, ms(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("compiling the fleet workload: %w", err)
		}
		inc := core.NewIncidence(p)
		t1 := time.Now()
		_, err = fleet.NewPartition(&inc, fleet.PartitionConfig{Shards: fcfg.Shards, Seed: fcfg.Seed})
		partitionMs = append(partitionMs, ms(time.Since(t1)))
		if err != nil {
			return fmt.Errorf("partitioning the fleet workload: %w", err)
		}
	}
	rep.layer["core.compile_ms"] = median(compileMs)
	rep.layer["fleet.partition_ms"] = median(partitionMs)

	e, err := core.NewEngine(f.Engine(0).CurrentWorkload(), core.Config{})
	if err != nil {
		return fmt.Errorf("building the standalone shard engine: %w", err)
	}
	defer e.Close()
	step := make([]float64, fleetCoreReps)
	kkt := make([]float64, fleetCoreReps)
	probe := make([]float64, fleetCoreReps)
	for i := range step {
		t0 := time.Now()
		e.Step()
		t1 := time.Now()
		e.KKTStats()
		t2 := time.Now()
		e.Probe()
		t3 := time.Now()
		step[i] = us(t1.Sub(t0))
		kkt[i] = us(t2.Sub(t1))
		probe[i] = us(t3.Sub(t2))
	}
	rep.layer["core.step_us"] = median(step)
	rep.layer["core.kkt_us"] = median(kkt)
	rep.layer["core.probe_us"] = median(probe)
	return nil
}
