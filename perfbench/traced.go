package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"

	"reunion/internal/obs"
)

// profiledPhases are the tick phases the CPU profile is split over.
var profiledPhases = map[string]bool{"reunion.warmup": true, "reunion.simulate": true}

// tracedRun runs the workload's op list (half the timed length) once
// untraced, then replays the same ops through the lower-level public
// calls under the phase tracer and a CPU profile, and reports the
// per-layer metrics.
func tracedRun(w workloadSpec, a args, dir string) (result, error) {
	c := config{seed: a.seed, workloadSeed: a.workloadSeed, dir: dir}
	b, err := w.setup(c)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	reg := obs.NewRegistry()
	if ro, ok := b.(restoreObserver); ok {
		ro.observe(reg)
	}

	rt0 := readRuntime()
	t0 := time.Now()
	ops, err := b.run(opCount(w, a.seconds, true))
	untraced := time.Since(t0)
	rt1 := readRuntime()
	if err != nil {
		return result{}, err
	}
	failed := 0
	for _, x := range ops {
		if x.err != nil {
			failed++
			fmt.Printf("# failed op: %v\n", x.err)
		}
	}
	correct := failed == 0
	if err := b.verify(ops); err != nil {
		fmt.Printf("# check failed: %v\n", err)
		correct = false
	}

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	rerr := b.replay(tr, ops)
	pprof.StopCPUProfile()
	if rerr != nil {
		fmt.Printf("# replay failed: %v\n", rerr)
		correct = false
	}
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	layers := p.layerNanos(profiledPhases)
	var tickCycles int64
	for ph := range profiledPhases {
		if s := tr.phases[ph]; s != nil {
			tickCycles += s.cycles
		}
	}

	n := float64(len(ops))
	var cycles, committed, l1d, l2, memAcc, compares, recoveries, tlbMiss int64
	for _, x := range ops {
		if x.kind == "publish" {
			continue
		}
		r := x.res
		cycles += r.Cycles
		committed += r.Committed
		l1d += r.L1DMisses
		l2 += r.L2Misses
		memAcc += r.MemAccesses
		compares += r.Compares
		recoveries += r.Recoveries
		tlbMiss += r.TLBMisses
	}
	perKinstr := func(v int64) float64 { return ratio(float64(v)*1e3, float64(committed)) }

	restoreObserved := 0.0
	if h := reg.Histogram("warm_restore_duration_us", "Wall time of one checkpoint restore in microseconds.").Snapshot(); h.N() > 0 {
		restoreObserved = h.Mean() / 1e3
		fmt.Printf("# restore cross-check: traced %.3f ms/call, WarmCache.Observe %.3f ms/call (n=%d)\n",
			tr.meanMS("reunion.restore"), restoreObserved, h.N())
	}
	tracedMean := ms(tr.opWall) / float64(max(tr.ops, 1))
	untracedMean := ms(untraced) / n
	fmt.Printf("# %s: %d ops replayed, %d failed; op mean %.3f ms untraced, %.3f ms traced; %d profile samples over %d tick cycles\n",
		w.name, len(ops), failed, untracedMean, tracedMean, len(p.samples), tickCycles)
	for _, name := range tr.names() {
		s := tr.phases[name]
		fmt.Printf("#   %-20s %6d calls %10.3f ms/call %9.3f MB/call\n", name, s.calls, tr.meanMS(name), tr.meanAllocMB(name))
	}

	m := []metric{
		{"reunion.new_system_ms", "ms", tr.meanMS("reunion.new_system")},
		{"reunion.prefill_ms", "ms", tr.meanMS("reunion.prefill")},
		{"reunion.warmup_ms", "ms", tr.meanMS("reunion.warmup")},
		{"reunion.golden_ms", "ms", tr.meanMS("reunion.golden")},
		{"reunion.digest_ms", "ms", tr.meanMS("reunion.digest")},
	}
	for _, ph := range []string{"snapshot", "restore", "simulate", "encode", "decode"} {
		m = append(m,
			metric{"reunion." + ph + "_ms", "ms", tr.meanMS("reunion." + ph)},
			metric{"reunion." + ph + "_alloc_mb", "MB", tr.meanAllocMB("reunion." + ph)})
	}
	m = append(m,
		metric{"reunion.bind_ms", "ms", tr.meanMS("reunion.bind")},
		metric{"reunion.blob_mb", "MB", float64(tr.blobBytes) / 1e6},
		metric{"reunion.phase_coverage_pct", "%", tr.coveragePct()},
		metric{"reunion.restore_observed_ms", "ms", restoreObserved},
		metric{"workload.build_ms", "ms", tr.meanMS("workload.build")},
		metric{"ckptstore.put_ms", "ms", tr.meanMS("ckptstore.put")},
		metric{"ckptstore.get_ms", "ms", tr.meanMS("ckptstore.get")},
		metric{"campaign.classify_us", "us", 1e3 * tr.meanMS("campaign.classify")},
		metric{"dist.emit_us", "us", 1e3 * tr.meanMS("dist.emit")},
		metric{"sweep.overhead_ms", "ms", tr.overheadMS()},
	)
	for _, l := range tickLayers {
		m = append(m, metric{l + ".ns_per_cycle", "ns/cycle", ratio(float64(layers[l]), float64(tickCycles))})
	}
	m = append(m,
		metric{"sim.kcycles_per_op", "kcycles", float64(tr.opCycles) / 1e3 / n},
		metric{"sim.steps_per_kcycle", "1/kcycle", ratio(float64(tr.steps)*1e3, float64(tr.schedCycles))},
		metric{"sim.skipped_cycle_frac", "frac", ratio(float64(tr.skipped), float64(tr.schedCycles))},
		metric{"reunion.ipc", "instr/cycle", ratio(float64(committed), float64(cycles))},
		metric{"cache.l1d_miss_per_kinstr", "1/kinstr", perKinstr(l1d)},
		metric{"coherence.l2_miss_per_kinstr", "1/kinstr", perKinstr(l2)},
		metric{"mem.accesses_per_kinstr", "1/kinstr", perKinstr(memAcc)},
		metric{"core.compares_per_kinstr", "1/kinstr", perKinstr(compares)},
		metric{"core.recoveries_per_op", "1/op", float64(recoveries) / n},
		metric{"tlb.miss_per_minstr", "1/minstr", ratio(float64(tlbMiss)*1e6, float64(committed))},
		metric{"runtime.gc_cpu_frac", "frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.allCPU-rt0.allCPU)},
		metric{"runtime.gc_cycles_per_op", "1/op", float64(rt1.gcCycles-rt0.gcCycles) / n},
		metric{"runtime.peak_rss_mb", "MB", peakRSSMB()},
		metric{"trace.overhead_pct", "%", 100 * (ratio(tracedMean, untracedMean) - 1)},
	)
	return result{correct: correct, attempted: len(ops), failed: failed, metrics: m}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
