package fleet

import (
	"math"
	"reflect"
	"testing"

	"lla/internal/core"
	"lla/internal/utility"
	"lla/internal/workload"
)

// subWorkload extracts the tasks of one shard as an independent workload —
// cloned tasks, task and resource order as in w. It is the reference the
// fleet's projected shard problems are checked against: compiling it must
// reproduce the shard's problem exactly.
func subWorkload(w *workload.Workload, name string, taskIdx []int) *workload.Workload {
	sub := &workload.Workload{
		Name:   name,
		Curves: make(map[string]utility.Curve, len(taskIdx)),
	}
	used := make(map[string]bool)
	for _, ti := range taskIdx {
		t := w.Tasks[ti].Clone()
		sub.Tasks = append(sub.Tasks, t)
		sub.Curves[t.Name] = w.Curves[t.Name]
		for _, s := range t.Subtasks {
			used[s.Resource] = true
		}
	}
	for _, r := range w.Resources {
		if used[r.ID] {
			sub.Resources = append(sub.Resources, r)
		}
	}
	return sub
}

// checkProjected asserts that every shard engine's problem deep-equals
// core.Compile of the shard's cloned sub-workload of w, and that the
// engine's CurrentWorkload deep-equals that sub-workload, name included.
func checkProjected(t *testing.T, f *Fleet, w *workload.Workload) {
	t.Helper()
	mode := f.cfg.Engine.WithDefaults().WeightMode
	for s := 0; s < f.Shards(); s++ {
		name := shardName(w, s)
		taskIdx := f.Partition().ShardTasks[s]
		want, err := core.Compile(subWorkload(w, name, taskIdx), mode)
		if err != nil {
			t.Fatalf("shard %d: compiling the reference sub-workload: %v", s, err)
		}
		if got := f.Engine(s).Problem(); !reflect.DeepEqual(got, want) {
			t.Errorf("shard %d: projected problem differs from the compiled sub-workload", s)
		}
		if got, want := f.Engine(s).CurrentWorkload(), subWorkload(w, name, taskIdx); !reflect.DeepEqual(got, want) {
			t.Errorf("shard %d: CurrentWorkload %q differs from the sub-workload %q", s, got.Name, want.Name)
		}
	}
}

// TestFleetShardsAreProjections: the shard problems New and ReplaceWorkload
// build by projecting the one compiled problem are exactly what compiling
// each shard's sub-workload on its own would give — on New, after an
// incremental ReplaceWorkload, and after the full-rebuild fallback.
func TestFleetShardsAreProjections(t *testing.T) {
	cfg := Config{Shards: 4, Seed: 1, LocalFreeze: true, LocalIters: 5000}
	for _, seed := range []int64{17, 23, 31, 41} {
		w := clusteredWorkload(t, seed, 0.25)
		f, err := New(w, cfg)
		if err != nil {
			t.Fatalf("seed %d: New: %v", seed, err)
		}
		checkProjected(t, f, w)
		if _, err := f.Run(); err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}

		w2 := w.Clone()
		w2.Tasks[0].CriticalMs *= 0.9
		st, err := f.ReplaceWorkload(w2)
		if err != nil {
			t.Fatalf("seed %d: ReplaceWorkload: %v", seed, err)
		}
		if st.Full || st.Rebuilt == 0 {
			t.Fatalf("seed %d: one-task delta: %+v, want an incremental rebuild", seed, st)
		}
		checkProjected(t, f, w2)

		tiny := subWorkload(w2, "tiny", []int{0, 1, 2})
		st, err = f.ReplaceWorkload(tiny)
		if err != nil {
			t.Fatalf("seed %d: ReplaceWorkload(tiny): %v", seed, err)
		}
		if !st.Full {
			t.Fatalf("seed %d: 3 tasks on 4 shards did not fall back to a full rebuild", seed)
		}
		checkProjected(t, f, tiny)
		f.Close()
	}
}

// TestFleetGolden pins the fleet's trajectory on three seeded small
// clustered instances — round count, final per-shard state hashes and the
// utility's bits, cold and after an incremental one-task ReplaceWorkload —
// so a change to how shards are built cannot move the arithmetic.
func TestFleetGolden(t *testing.T) {
	type outcome struct {
		rounds  int
		utility uint64
		hashes  []uint64
	}
	golden := []struct {
		seed          int64
		cold, replace outcome
	}{
		{7,
			outcome{41, 0x40b87b9ed481671e, []uint64{0x94443f7c58b1ba85, 0x62956c2b891aceb, 0x677879cd18f5cd61, 0x27b9851990800d68}},
			outcome{2, 0x40b87b9ed336f642, []uint64{0x7c411f8211544968, 0xa2703db38ac0dd9, 0x32cf6a1e6e0ca59a, 0x7c88dadf76647a3e}}},
		{19,
			outcome{35, 0x40b88ac68611ccf0, []uint64{0xaa5543a6a4063e6, 0xc33b6da3eca9dce1, 0xf1887569b0c2c5c9, 0x753f8dc022fc685d}},
			outcome{2, 0x40b88ac6846d0ef1, []uint64{0x80b523f612f5a946, 0xb82df9a7f0f579f6, 0x9fc200e78a77dbee, 0xead2be3028a62a64}}},
		{43,
			outcome{39, 0x40b99ff1e85d4348, []uint64{0xfbfb24e5fc3b85dd, 0xcacd36a1208cfe5c, 0x424678c79a82f66a, 0x7339b4e4a90207b1}},
			outcome{2, 0x40b99ff1e6632f7a, []uint64{0xb0334474e1fb233f, 0xd23ca116f62d5077, 0xa9aa40ae10e816a0, 0xcda2ef866fd5b31}}},
	}
	check := func(seed int64, phase string, res Result, want outcome) {
		t.Helper()
		if !res.Converged {
			t.Errorf("seed %d %s: did not certify in %d rounds", seed, phase, res.Rounds)
		}
		got := outcome{res.Rounds, math.Float64bits(res.Utility), res.ShardHashes[len(res.ShardHashes)-1]}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d %s: got rounds %d utility %#x hashes %#x, want rounds %d utility %#x hashes %#x",
				seed, phase, got.rounds, got.utility, got.hashes, want.rounds, want.utility, want.hashes)
		}
	}
	for _, g := range golden {
		w := clusteredWorkload(t, g.seed, 0.25)
		f, err := New(w, Config{Shards: 4, Seed: g.seed, Engine: core.Config{Workers: 1}, RecordHashes: true})
		if err != nil {
			t.Fatalf("seed %d: New: %v", g.seed, err)
		}
		res, err := f.Run()
		if err != nil {
			t.Fatalf("seed %d: Run: %v", g.seed, err)
		}
		check(g.seed, "cold", res, g.cold)

		w2 := w.Clone()
		w2.Tasks[0].CriticalMs *= 0.9
		if _, err := f.ReplaceWorkload(w2); err != nil {
			t.Fatalf("seed %d: ReplaceWorkload: %v", g.seed, err)
		}
		res, err = f.Run()
		if err != nil {
			t.Fatalf("seed %d: re-run: %v", g.seed, err)
		}
		check(g.seed, "replace", res, g.replace)
		f.Close()
	}
}

// TestFleetSetMinShareLeavesCallerWorkload: shard engines share the
// caller's tasks read-only, so a runtime floor change on a shard engine
// must leave the caller's workload — the fleet's ReplaceWorkload diff base
// — untouched.
func TestFleetSetMinShareLeavesCallerWorkload(t *testing.T) {
	w := clusteredWorkload(t, 17, 0.25)
	before := w.Clone()
	f, err := New(w, Config{Shards: 4, Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	eng := f.Engine(0)
	pt := eng.Problem().Tasks[0]
	if err := eng.SetMinShare(pt.Name, pt.SubtaskNames[0], 0.05); err != nil {
		t.Fatalf("SetMinShare: %v", err)
	}
	if got := eng.CurrentWorkload().TaskByName(pt.Name).Subtasks[0].MinShare; got != 0.05 {
		t.Fatalf("shard engine's own workload has floor %v, want 0.05", got)
	}
	if !reflect.DeepEqual(w.Clone(), before) {
		t.Fatal("SetMinShare on a shard engine modified the caller's workload")
	}
}
