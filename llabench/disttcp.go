package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"lla/internal/core"
	"lla/internal/dist"
	"lla/internal/transport"
	"lla/internal/workload"
)

// distRounds is the fixed round count of one distributed solve.
const distRounds = 20

// distInprocSolves is how many in-process solves the traced pass times for
// dist.inproc_round_us.
const distInprocSolves = 5

// distWorkload is the paper's base workload replicated four times with
// critical times scaled by 8 (12 tasks on 8 resources), its task and
// resource order shuffled by the seed. The order is all the seed changes:
// the problem stays the same, only the endpoints' names, the wire
// dictionary and the reduction order move.
func distWorkload(seed int64) (*workload.Workload, error) {
	w, err := workload.Replicate(workload.Base(), 4, 8)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(w.Tasks), func(i, j int) { w.Tasks[i], w.Tasks[j] = w.Tasks[j], w.Tasks[i] })
	rng.Shuffle(len(w.Resources), func(i, j int) { w.Resources[i], w.Resources[j] = w.Resources[j], w.Resources[i] })
	return w, nil
}

// runDistTCP runs back-to-back synchronous distributed solves over TCP
// loopback with the binary wire codec, each on a fresh deployment
// (dist.New, the set-up) for distRounds rounds, and checks every solve's
// prices and latencies bitwise against core.Engine after as many Steps.
func runDistTCP(rc runConfig, tr *tracer) (*report, error) {
	w, err := distWorkload(rc.seed)
	if err != nil {
		return nil, fmt.Errorf("building the dist workload: %w", err)
	}
	want, err := engineAfter(w, distRounds)
	if err != nil {
		return nil, err
	}
	registry := make(map[string]string)
	for _, a := range dist.Addresses(w) {
		registry[a] = "127.0.0.1:0"
	}

	rep := newReport()
	var setupS, solveMs, allocsPR, allocKBPR, retrans, suppressed []float64
	var sends, frames, frameBytes int64
	var sendUs, encodeUs, readUs []float64
	utility := 0.0
	deadline := time.Now().Add(rc.duration())
	for len(solveMs) == 0 || time.Now().Before(deadline) {
		op := tr.op()
		p := newWireProbe(tr, op)
		tcp := transport.NewTCP(registry)
		tcp.SetCodec(&probedCodec{inner: dist.WireCodec(w, nil), p: p})
		net := &probedNetwork{inner: tcp, p: p}

		sid, sst := tr.begin()
		t0 := time.Now()
		rt, err := dist.New(w, core.Config{}, net)
		setup := time.Since(t0)
		tr.end("dist.new", sid, 0, op, sst)
		if err != nil {
			p.closeAll()
			return nil, fmt.Errorf("deploying over TCP: %w", err)
		}

		rid, rst := tr.begin()
		p.run.Store(rid)
		before := heapCounters()
		t1 := time.Now()
		res, runErr := rt.Run(distRounds)
		solve := time.Since(t1)
		alloc := heapCounters().since(before)
		tr.end("dist.run", rid, 0, op, rst)
		rt.Close()
		p.closeAll()
		tr.finishOp()

		if runErr != nil {
			rep.ops.record(fmt.Sprintf("solve %d: %v", len(solveMs)+1, runErr))
		} else {
			rep.ops.record(sameState(res.Mu, res.LatMs, want))
			utility = res.Utility
			retrans = append(retrans, float64(res.Retransmits))
			suppressed = append(suppressed, float64(res.DeltaSuppressed))
		}
		if why := p.negotiated(); why != "" {
			rep.brokenf("solve %d: %s", len(solveMs)+1, why)
		}
		setupS = append(setupS, setup.Seconds())
		solveMs = append(solveMs, ms(solve))
		allocsPR = append(allocsPR, float64(alloc.Count)/distRounds)
		allocKBPR = append(allocKBPR, float64(alloc.Bytes)/1024/distRounds)
		sends += p.sends.Load()
		frames += p.frames.Load()
		frameBytes += p.frameBytes.Load()
		sendUs = append(sendUs, p.sendUs...)
		encodeUs = append(encodeUs, p.encodeUs...)
		readUs = append(readUs, p.readUs...)
	}

	rounds := float64(len(solveMs) * distRounds)
	rep.opLatency("solve", solveMs)
	rep.e2e["setup_s"] = median(setupS)
	rep.e2e["peak_rss_mb"] = peakRSSMB()
	rep.e2e["utility"] = utility
	rep.layer["core.resident_tasks_max"] = float64(len(w.Tasks))
	rep.layer["dist.round_us"] = median(solveMs) * 1e3 / distRounds
	rep.layer["dist.allocs_per_round"] = median(allocsPR)
	rep.layer["dist.alloc_kb_per_round"] = median(allocKBPR)
	rep.layer["dist.retransmits"] = orZero(median(retrans))
	rep.layer["dist.delta_suppressed"] = orZero(median(suppressed))
	rep.layer["transport.sends_per_round"] = float64(sends) / rounds
	rep.layer["wire.frames_per_round"] = float64(frames) / rounds
	rep.layer["wire.bytes_per_round"] = float64(frameBytes) / rounds
	if tr != nil {
		rep.layer["transport.send_us_p50"] = median(sendUs)
		rep.layer["wire.encode_us_p50"] = median(encodeUs)
		rep.layer["wire.read_us_p50"] = median(readUs)
		inproc, err := inprocRoundUs(rep, w, want)
		if err != nil {
			return nil, err
		}
		rep.layer["dist.inproc_round_us"] = inproc
	}
	rep.notef("dist-tcp: %d tasks, %d resources, %d rounds per solve, %d solves, binary codec on every connection",
		len(w.Tasks), len(w.Resources), distRounds, len(solveMs))
	return rep, nil
}

// engineAfter runs core.Engine for rounds Steps: the state a loss-free
// synchronous distributed run must reproduce bit for bit.
func engineAfter(w *workload.Workload, rounds int) (core.Snapshot, error) {
	e, err := core.NewEngine(w, core.Config{})
	if err != nil {
		return core.Snapshot{}, fmt.Errorf("building the reference engine: %w", err)
	}
	defer e.Close()
	e.Run(rounds, nil)
	return e.Snapshot(), nil
}

// sameState returns "" when mu and latMs equal the reference bitwise, else
// the first difference.
func sameState(mu []float64, latMs [][]float64, want core.Snapshot) string {
	if len(mu) != len(want.Mu) || len(latMs) != len(want.LatMs) {
		return fmt.Sprintf("shape differs: %d prices, %d tasks; engine %d, %d", len(mu), len(latMs), len(want.Mu), len(want.LatMs))
	}
	for ri := range mu {
		if math.Float64bits(mu[ri]) != math.Float64bits(want.Mu[ri]) {
			return fmt.Sprintf("price %d = %v, engine %v", ri, mu[ri], want.Mu[ri])
		}
	}
	for ti := range latMs {
		if len(latMs[ti]) != len(want.LatMs[ti]) {
			return fmt.Sprintf("task %d has %d latencies, engine %d", ti, len(latMs[ti]), len(want.LatMs[ti]))
		}
		for si := range latMs[ti] {
			if math.Float64bits(latMs[ti][si]) != math.Float64bits(want.LatMs[ti][si]) {
				return fmt.Sprintf("latency %d/%d = %v, engine %v", ti, si, latMs[ti][si], want.LatMs[ti][si])
			}
		}
	}
	return ""
}

// inprocRoundUs times the same solve over the in-process network without a
// codec: the round cost with no sockets and no frame encoding. Each solve is
// checked against the engine like a TCP one and counted in rep.ops.
func inprocRoundUs(rep *report, w *workload.Workload, want core.Snapshot) (float64, error) {
	var perRound []float64
	for i := 0; i < distInprocSolves; i++ {
		net := transport.NewInproc(transport.InprocConfig{})
		rt, err := dist.New(w, core.Config{}, net)
		if err != nil {
			return 0, fmt.Errorf("deploying in process: %w", err)
		}
		t0 := time.Now()
		res, err := rt.Run(distRounds)
		d := time.Since(t0)
		rt.Close()
		net.Wait()
		if err != nil {
			rep.ops.record(fmt.Sprintf("in-process solve %d: %v", i+1, err))
			continue
		}
		rep.ops.record(sameState(res.Mu, res.LatMs, want))
		perRound = append(perRound, us(d)/distRounds)
	}
	return orZero(median(perRound)), nil
}
