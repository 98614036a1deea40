// Package core implements LLA (Lagrangian Latency Assignment), the paper's
// central contribution (Section 4): a distributed dual-decomposition
// algorithm that assigns per-subtask latencies maximizing aggregate utility
// subject to proportional-share resource constraints (Equation 3) and
// per-path critical-time constraints (Equation 4). Task controllers solve
// the per-task Lagrangian stationarity conditions (latency allocation,
// Section 4.2) while resources and controllers update congestion prices by
// gradient projection (price computation, Section 4.3).
package core

import (
	"fmt"
	"math"

	"lla/internal/share"
	"lla/internal/task"
	"lla/internal/utility"
	"lla/internal/workload"
)

// Problem is a compiled, index-based view of a workload: all name lookups,
// path enumerations and weight derivations are done once so that iterations
// touch only dense slices.
type Problem struct {
	// Tasks holds one compiled task per workload task, same order.
	Tasks []ProblemTask
	// Resources holds the compiled resources.
	Resources []ProblemResource

	// src is the workload the problem describes; mode the weight mode its
	// Weights were derived under.
	src  *workload.Workload
	mode task.WeightMode
}

// ProblemTask is the compiled per-task view used by its task controller.
type ProblemTask struct {
	// Name is the task name.
	Name string
	// CriticalMs is the task's critical time.
	CriticalMs float64
	// Curve maps aggregate weighted latency to utility.
	Curve utility.Curve
	// Weights are the per-subtask utility weights w_s for the configured
	// weight mode.
	Weights []float64
	// Paths lists every root-to-leaf path as subtask indices.
	Paths [][]int
	// PathsThrough[s] lists the indices (into Paths) of paths containing
	// subtask s.
	PathsThrough [][]int
	// Res[s] is the index into Problem.Resources of subtask s's resource.
	Res []int
	// Share[s] is subtask s's share function (WCET + resource lag; the
	// additive error term is updated in place by error correction).
	Share []share.WCETLag
	// LatMinMs[s] is the lowest admissible latency: the latency at which
	// the subtask would consume the resource's full availability.
	LatMinMs []float64
	// LatMaxMs[s] is the highest admissible latency: the critical time,
	// tightened by the subtask's rate-derived minimum share when present.
	LatMaxMs []float64
	// SubtaskNames holds the subtask names for reporting.
	SubtaskNames []string
}

// ProblemResource is the compiled per-resource view used by its price agent.
type ProblemResource struct {
	// ID is the resource identifier.
	ID string
	// Availability is B_r.
	Availability float64
	// LagMs is the scheduling lag l_r.
	LagMs float64
	// Subs lists the (task index, subtask index) pairs consuming this
	// resource.
	Subs [][2]int
}

// Compile validates the workload and builds the dense problem view.
// weightMode selects the utility variant of Section 3.2. Tasks, Resources
// and every resource's Subs list are sized exactly up front: Subs come from
// a count pass over the compiled Res indices and share one backing array.
func Compile(w *workload.Workload, weightMode task.WeightMode) (*Problem, error) {
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p := &Problem{
		Tasks:     make([]ProblemTask, len(w.Tasks)),
		Resources: make([]ProblemResource, len(w.Resources)),
		src:       w,
		mode:      weightMode,
	}

	resIdx := make(map[string]int, len(w.Resources))
	for i, r := range w.Resources {
		resIdx[r.ID] = i
		p.Resources[i] = ProblemResource{
			ID:           r.ID,
			Availability: r.Availability,
			LagMs:        r.LagMs,
		}
	}

	for ti, t := range w.Tasks {
		weights, err := t.Weights(weightMode)
		if err != nil {
			return nil, fmt.Errorf("core: task %s: %w", t.Name, err)
		}
		paths, err := t.Paths()
		if err != nil {
			return nil, fmt.Errorf("core: task %s: %w", t.Name, err)
		}
		n := len(t.Subtasks)
		pt := &p.Tasks[ti]
		*pt = ProblemTask{
			Name:         t.Name,
			CriticalMs:   t.CriticalMs,
			Curve:        w.Curves[t.Name],
			Weights:      weights,
			Paths:        paths,
			PathsThrough: make([][]int, n),
			Res:          make([]int, n),
			Share:        make([]share.WCETLag, n),
			LatMinMs:     make([]float64, n),
			LatMaxMs:     make([]float64, n),
			SubtaskNames: make([]string, n),
		}
		for pi, path := range paths {
			for _, s := range path {
				pt.PathsThrough[s] = append(pt.PathsThrough[s], pi)
			}
		}
		for si, s := range t.Subtasks {
			ri := resIdx[s.Resource]
			pt.Res[si] = ri
			pt.Share[si] = share.WCETLag{ExecMs: s.ExecMs, LagMs: w.Resources[ri].LagMs}
			pt.SubtaskNames[si] = s.Name
			p.setBounds(ti, si, s.MinShare)
		}
	}
	p.buildSubs()
	return p, nil
}

// buildSubs fills every resource's Subs list — the (task, subtask) pairs
// consuming it, in ascending (task, subtask) order — from the tasks' Res
// indices: a count pass sizes each list, then one shared backing array
// holds them all.
func (p *Problem) buildSubs() {
	count := make([]int, len(p.Resources))
	total := 0
	for ti := range p.Tasks {
		for _, ri := range p.Tasks[ti].Res {
			count[ri]++
		}
		total += len(p.Tasks[ti].Res)
	}
	flat := make([][2]int, total)
	off := 0
	for ri := range p.Resources {
		if n := count[ri]; n > 0 {
			p.Resources[ri].Subs = flat[off : off : off+n]
			off += n
		}
	}
	for ti := range p.Tasks {
		for si, ri := range p.Tasks[ti].Res {
			p.Resources[ri].Subs = append(p.Resources[ri].Subs, [2]int{ti, si})
		}
	}
}

// Project returns the sub-problem of p restricted to the tasks taskIdx
// (ascending indices into p.Tasks), exactly as Compile would build it from
// a workload holding just those tasks and the resources they use, named
// name: every task keeps its compiled data, Res is remapped to the
// sub-problem's resource indices (original resource order kept), and each
// resource's Subs is the original list filtered to the selected tasks, in
// compile order. Nothing is re-validated or re-derived. Because every order
// is kept, a shard whose resources no other task uses runs exactly the full
// problem's per-component arithmetic, bit for bit.
//
// The sub-problem takes over the selected tasks' compiled slices rather
// than copying them — the engine adjusts Share, LatMinMs and LatMaxMs in
// place — so a task may be projected at most once, and p must not back an
// engine once it has been projected. The sub-problem's source workload
// shares p's *task.Task values, read-only (see SetMinShare).
func (p *Problem) Project(taskIdx []int, name string) *Problem {
	// local[ri] is resource ri's sub-problem index, or -1 if unused.
	local := make([]int, len(p.Resources))
	for ri := range local {
		local[ri] = -1
	}
	nsub := 0
	for _, ti := range taskIdx {
		for _, ri := range p.Tasks[ti].Res {
			local[ri] = 0
		}
		nsub += len(p.Tasks[ti].Res)
	}
	nres := 0
	for ri := range local {
		if local[ri] == 0 {
			local[ri] = nres
			nres++
		}
	}

	sw := &workload.Workload{
		Name:      name,
		Tasks:     make([]*task.Task, len(taskIdx)),
		Resources: make([]share.Resource, 0, nres),
		Curves:    make(map[string]utility.Curve, len(taskIdx)),
	}
	sub := &Problem{
		Tasks:     make([]ProblemTask, len(taskIdx)),
		Resources: make([]ProblemResource, 0, nres),
		src:       sw,
		mode:      p.mode,
	}
	for ri := range p.Resources {
		if local[ri] >= 0 {
			r := p.Resources[ri]
			r.Subs = nil
			sub.Resources = append(sub.Resources, r)
			sw.Resources = append(sw.Resources, p.src.Resources[ri])
		}
	}
	res := make([]int, nsub)
	for i, ti := range taskIdx {
		pt := p.Tasks[ti]
		n := len(pt.Res)
		r := res[:n:n]
		res = res[n:]
		for si, ri := range pt.Res {
			r[si] = local[ri]
		}
		pt.Res = r
		sub.Tasks[i] = pt
		t := p.src.Tasks[ti]
		sw.Tasks[i] = t
		sw.Curves[t.Name] = p.src.Curves[t.Name]
	}
	sub.buildSubs()
	return sub
}

// Workload returns the workload this problem was compiled from.
func (p *Problem) Workload() *workload.Workload { return p.src }

// NumSubtasks counts subtasks across all tasks.
func (p *Problem) NumSubtasks() int {
	n := 0
	for i := range p.Tasks {
		n += len(p.Tasks[i].Res)
	}
	return n
}

// ResponseSlope returns subtask (ti, si)'s demand response to its resource
// price, −∂share/∂μ ≥ 0, at the given latency and price. On the
// stationarity solution (Equation 7) lat − e = sqrt(μ·k/denom) with
// k = c + l, so share = k/(lat−e) = sqrt(k·denom/μ) and
// ∂share/∂μ = −share/(2μ) — the closed-form diagonal of the dual Hessian
// that the DiagonalNewton price dynamics consume as curvature. Bound-active
// subtasks (and free resources) do not respond: a clamped latency stays
// clamped under a marginal price move, so their response is zero. The
// interior test matches the KKT-residual one so curvature and stationarity
// agree on which subtasks count.
func (p *Problem) ResponseSlope(ti, si int, latMs, mu float64) float64 {
	pt := &p.Tasks[ti]
	if mu <= 0 {
		return 0
	}
	lo, hi := pt.LatMinMs[si], pt.LatMaxMs[si]
	if latMs <= lo*(1+1e-6) || latMs >= hi*(1-1e-6) {
		return 0
	}
	return pt.Share[si].Share(latMs) / (2 * mu)
}

// refreshBounds recomputes a subtask's latency bounds after a change to its
// share function (error correction) or its resource's availability.
func (p *Problem) refreshBounds(ti, si int) {
	p.setBounds(ti, si, p.src.Tasks[ti].Subtasks[si].MinShare)
}

// setBounds derives a subtask's latency bounds from its share function, its
// resource's availability, its task's critical time and its minimum-share
// floor.
func (p *Problem) setBounds(ti, si int, minShare float64) {
	pt := &p.Tasks[ti]
	r := p.Resources[pt.Res[si]]
	pt.LatMinMs[si] = pt.Share[si].LatencyFor(r.Availability)
	maxLat := pt.CriticalMs
	if minShare > 0 {
		if cap := pt.Share[si].LatencyFor(minShare); cap < maxLat {
			maxLat = cap
		}
	}
	if maxLat < pt.LatMinMs[si] {
		// Degenerate bounds (e.g. availability too low for the deadline):
		// keep a consistent interval; the constraint violation will surface
		// in the snapshot instead.
		maxLat = pt.LatMinMs[si]
	}
	pt.LatMaxMs[si] = maxLat
}

// setMinShare writes a subtask's minimum-share floor into the source
// workload copy-on-write: the workload header, its task list and the one
// task are cloned first, so neither the caller's workload nor a fleet
// sharing its tasks ever sees the change. Runtime floor changes are rare;
// refreshBounds and CurrentWorkload read the floor back through src.
func (p *Problem) setMinShare(ti, si int, minShare float64) {
	w := *p.src
	w.Tasks = append([]*task.Task(nil), p.src.Tasks...)
	t := w.Tasks[ti].Clone()
	t.Subtasks[si].MinShare = minShare
	w.Tasks[ti] = t
	p.src = &w
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// safeSqrt returns sqrt(max(x, 0)).
func safeSqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
