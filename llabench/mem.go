package main

import (
	"runtime"
	"syscall"
)

// allocs is a heap allocation count and volume.
type allocs struct {
	Count uint64
	Bytes uint64
}

// heapCounters reads the cumulative allocation counters. ReadMemStats stops
// the world, so callers read them between phases, never inside a timed call.
func heapCounters() allocs {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocs{Count: ms.Mallocs, Bytes: ms.TotalAlloc}
}

// since is the allocation done between an earlier reading and now.
func (a allocs) since(earlier allocs) allocs {
	return allocs{Count: a.Count - earlier.Count, Bytes: a.Bytes - earlier.Bytes}
}

// phases attributes allocation to consecutive named phases: each mark
// charges everything allocated since the previous mark to the named phase.
// The counters are process-wide, so only work on the marking goroutine's
// behalf should run between marks.
type phases struct {
	last  allocs
	total map[string]allocs
}

func newPhases() *phases {
	return &phases{last: heapCounters(), total: make(map[string]allocs)}
}

// mark charges the allocation since the previous mark to phase.
func (p *phases) mark(phase string) {
	now := heapCounters()
	d := now.since(p.last)
	t := p.total[phase]
	p.total[phase] = allocs{Count: t.Count + d.Count, Bytes: t.Bytes + d.Bytes}
	p.last = now
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
