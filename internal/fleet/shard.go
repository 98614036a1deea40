package fleet

import (
	"math"

	"lla/internal/core"
	"lla/internal/wire"
)

// shardRuntime wraps one shard's engine: the shard's tasks with their
// original compiled data, boundary resources pinned to the aggregator's
// prices.
type shardRuntime struct {
	id  int
	eng *core.Engine

	// localRi[j] is the engine-local resource index of the shard's j-th
	// present boundary resource; slot[j] is its index into the fleet's
	// boundary vectors. Both ascend in boundary order.
	localRi []int
	slot    []int

	// Certification state refreshed by sweep.
	iters    int     // engine iterations consumed by the last sweep
	kktMax   float64 // shard-local KKT residual after the last sweep
	viol     float64 // worst unpinned resource violation (absolute)
	pathViol float64 // worst path violation fraction

	// Shard-level active-set state (SHARDING.md): frozen records that the
	// last sweep exited at a bitwise self-fixed-point (a Step that executed
	// zero solves and repriced zero resources), sweptEpoch the engine's pin
	// epoch when that sweep ended. While both hold — no pinned boundary
	// price has moved since a proven fixed point — re-sweeping would be a
	// bitwise no-op, so the round skips the shard entirely. skip caches the
	// current round's decision.
	frozen     bool
	sweptEpoch uint64
	skip       bool

	// bd and bp are the shard's reusable boundary report/pin buffers
	// (demand+curvature out, price+congestion in). Resource and Shard
	// fields are fixed at (re)build; per-round refreshes touch only the
	// varying fields, so a steady-state round allocates nothing. On a
	// skipped round bd is reused as-is: the shard's state is bitwise
	// unchanged, so the cached demand and curvature are bit-exact.
	bd []wire.BoundaryDemand
	bp []wire.BoundaryPrice
}

// refreshBoundary refreshes the shard's boundary demand report from the
// engine's post-sweep state. Curvature is recomputed only when the boundary
// solver consumes it (O(degree) per resource). Runs inside the sweep job —
// it touches only this shard's engine and buffers, so concurrent shard
// sweeps stay race-free.
func (s *shardRuntime) refreshBoundary(needCurv bool) {
	for j, lri := range s.localRi {
		s.bd[j].Demand = s.eng.ShareSumAt(lri)
		if needCurv {
			s.bd[j].Curvature = s.eng.CurvatureAt(lri)
		}
	}
}

// sweep runs the shard's local price dynamics against the current pinned
// boundary prices until the shard-local fixed point: the KKT/feasibility
// window rule, or — in freeze mode, and as an early exit on the sparse
// path — until a Step executes zero solves and reprices zero resources,
// meaning the state is bitwise frozen and further Steps are no-ops.
// maxIters always caps the sweep. The certification fields are refreshed
// on exit: on a window-rule exit they are the values the last check just
// computed on the unchanged state; every other exit recomputes them.
func (s *shardRuntime) sweep(maxIters int, freeze bool, kktTol float64, window int, tol float64) {
	if window < 1 {
		window = 1
	}
	stable := 0
	s.iters = 0
	s.frozen = false
	sparse := s.eng.SparseEnabled()
	for s.iters < maxIters {
		var before core.SparseStats
		if sparse {
			before = s.eng.SparseStats()
		}
		s.eng.Step()
		s.iters++
		if sparse {
			after := s.eng.SparseStats()
			if after.ExecutedSolves == before.ExecutedSolves &&
				after.RepricedResources == before.RepricedResources {
				s.frozen = true
				break // bitwise frozen: replaying the Step changes nothing
			}
		}
		if freeze {
			continue
		}
		kktMax, _, _ := s.eng.KKTStats()
		pathViol := s.eng.Probe().MaxPathViolationFrac
		if kktMax < kktTol {
			if viol := s.unpinnedViolation(); viol < tol && pathViol < tol {
				stable++
				if stable >= window {
					s.kktMax, s.viol, s.pathViol = kktMax, viol, pathViol
					return
				}
				continue
			}
		}
		stable = 0
	}
	s.kktMax, _, _ = s.eng.KKTStats()
	s.viol = s.unpinnedViolation()
	s.pathViol = s.eng.Probe().MaxPathViolationFrac
}

// unpinnedViolation is the worst absolute capacity violation over the
// shard's unpinned resources — the shard-owned half of primal feasibility.
// Pinned (boundary) resources are excluded: their prices are the
// aggregator's iterate, and while it is still searching, local demand
// against an underpriced boundary resource legitimately exceeds capacity.
// The aggregator checks boundary feasibility globally instead.
func (s *shardRuntime) unpinnedViolation() float64 {
	p := s.eng.Problem()
	v := 0.0
	for ri := range p.Resources {
		if s.eng.PinnedAt(ri) {
			continue
		}
		if over := s.eng.ShareSumAt(ri) - p.Resources[ri].Availability; over > v {
			v = over
		}
	}
	return v
}

// stateHash is an FNV-1a 64 hash over the shard's full optimization state —
// every resource price and every subtask latency, bit for bit. Equal hashes
// across runs at every aggregator round are the fleet's per-shard
// determinism certificate.
func (s *shardRuntime) stateHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	p := s.eng.Problem()
	for ri := range p.Resources {
		mix(math.Float64bits(s.eng.MuAt(ri)))
	}
	for ti := range p.Tasks {
		for _, l := range s.eng.Controller(ti).LatMs {
			mix(math.Float64bits(l))
		}
	}
	return h
}
