package main

import (
	"context"
	"runtime/pprof"
	"sort"
	"time"

	"reunion"
)

// phaseStat accumulates one phase of the traced replay.
type phaseStat struct {
	calls  int
	dur    time.Duration
	alloc  uint64 // heap bytes allocated inside the calls
	cycles int64  // simulated cycles the calls ran (warmup and simulate)
}

// tracer times each public call of the traced replay and takes its heap
// allocation delta. Each call runs under a pprof label naming its phase,
// so the CPU profile can be split by phase. A nil tracer just runs the
// calls: the timed runs share the code paths without tracing.
type tracer struct {
	alloc  *allocCounter
	phases map[string]*phaseStat

	opPhases time.Duration // phase time inside the current op
	opWall   time.Duration // summed wall time of finished ops
	opCover  time.Duration // summed phase time of finished ops
	ops      int
	inOp     bool
	opCycles int64 // simulated cycles inside ops

	// Scheduler work over the measured windows (sim.Scheduler counters).
	steps, skipped, schedCycles int64

	blobBytes int // size of the last encoded checkpoint
}

func newTracer() *tracer {
	return &tracer{alloc: newAllocCounter(), phases: map[string]*phaseStat{}}
}

func (t *tracer) stat(name string) *phaseStat {
	p := t.phases[name]
	if p == nil {
		p = &phaseStat{}
		t.phases[name] = p
	}
	return p
}

// do runs f as one call of the named phase.
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	a0 := t.alloc.read()
	t0 := time.Now()
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { f() })
	d := time.Since(t0)
	a1 := t.alloc.read()
	p := t.stat(name)
	p.calls++
	p.dur += d
	p.alloc += a1 - a0
	t.opPhases += d
}

// sim is do for a phase that simulates a known number of cycles.
func (t *tracer) sim(name string, cycles int64, f func()) {
	t.do(name, f)
	t.addCycles(name, cycles)
}

// addCycles charges simulated cycles to a phase after the fact, for runs
// whose length is known only once they end.
func (t *tracer) addCycles(name string, cycles int64) {
	if t != nil {
		t.stat(name).cycles += cycles
		if t.inOp {
			t.opCycles += cycles
		}
	}
}

// schedule records the scheduler's counters after a measured window of
// the given length (the counters restart at the window's stats reset).
func (t *tracer) schedule(sys *reunion.System, cycles int64) {
	if t == nil {
		return
	}
	steps, _, skipped := sys.Sched.Snapshot().Counters()
	t.steps += steps
	t.skipped += skipped
	t.schedCycles += cycles
}

// op runs f as one replayed op: its wall time and the phase time inside
// it feed the phase-coverage figure.
func (t *tracer) op(f func() error) error {
	if t == nil {
		return f()
	}
	t.opPhases = 0
	t.inOp = true
	t0 := time.Now()
	err := f()
	t.inOp = false
	t.opWall += time.Since(t0)
	t.opCover += t.opPhases
	t.ops++
	return err
}

// coveragePct is the share of replayed op wall time spent inside timed
// phases.
func (t *tracer) coveragePct() float64 {
	if t.opWall == 0 {
		return 0
	}
	return 100 * float64(t.opCover) / float64(t.opWall)
}

// overheadMS is the mean op wall time not covered by any phase.
func (t *tracer) overheadMS() float64 {
	if t.ops == 0 {
		return 0
	}
	return ms(t.opWall-t.opCover) / float64(t.ops)
}

// meanMS and meanAllocMB report a phase per call; an absent phase reads 0.
func (t *tracer) meanMS(name string) float64 {
	p := t.phases[name]
	if p == nil || p.calls == 0 {
		return 0
	}
	return ms(p.dur) / float64(p.calls)
}

func (t *tracer) meanAllocMB(name string) float64 {
	p := t.phases[name]
	if p == nil || p.calls == 0 {
		return 0
	}
	return float64(p.alloc) / 1e6 / float64(p.calls)
}

// names lists the recorded phases in order.
func (t *tracer) names() []string {
	var ns []string
	for n := range t.phases {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}
