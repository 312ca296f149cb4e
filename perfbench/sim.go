package main

import (
	"fmt"

	"reunion"
	"reunion/internal/campaign"
	"reunion/internal/fault"
	"reunion/internal/workload"
)

// Simulation windows. Every option a run depends on is set explicitly,
// so the lower-level replays below need no hidden defaults.
const (
	threads       = 4
	trialWarm     = 10_000
	commitTarget  = reunion.DefaultCommitTarget
	trialDeadline = 200_000
	cellWarm      = 40_000 // QuickExp windows
	cellMeasure   = 30_000
)

func params(name string) workload.Params {
	p, ok := workload.ByName(name)
	if !ok {
		panic("perfbench: unknown workload profile " + name)
	}
	return p
}

// trialOptions is one Reunion fault-injection cell: directory topology,
// a 10k-cycle warmup, and a run to the per-processor commit target.
func trialOptions(name string, seed uint64) reunion.Options {
	return reunion.Options{
		Mode: reunion.ModeReunion, Workload: params(name), Threads: threads,
		Seed: seed, CompareLatency: 10, FPInterval: 1,
		WarmCycles: trialWarm, CommitTarget: commitTarget, TrialDeadline: trialDeadline,
	}
}

// cellOptions is one Figure 6 cell at QuickExp windows; lat 0 is a
// literal zero-cycle comparison latency.
func cellOptions(name string, mode reunion.Mode, lat int64, seed uint64) reunion.Options {
	if lat == 0 {
		lat = reunion.ZeroLatency
	}
	return reunion.Options{
		Mode: mode, Workload: params(name), Threads: threads,
		Seed: seed, CompareLatency: lat, FPInterval: 1,
		WarmCycles: cellWarm, MeasureCycles: cellMeasure,
	}
}

// buildParts assembles a cold system for o from the exported parts, the
// way reunion.Run does before prefill and warmup. Options must carry
// every field explicitly (see trialOptions and cellOptions).
func buildParts(o reunion.Options, tr *tracer) *reunion.System {
	cfg := reunion.DefaultConfig()
	cfg.CompareLatency = o.CompareLatency
	if o.CompareLatency == reunion.ZeroLatency {
		cfg.CompareLatency = 0
	}
	cfg.L2.Phantom = o.Phantom
	cfg.Core.TLB.Mode = o.TLB
	cfg.Core.Consistency = o.Consistency
	cfg.Core.FPInterval = o.FPInterval
	var w *workload.Workload
	tr.do("workload.build", func() { w = o.Workload.Build(o.Seed, o.Threads) })
	var sys *reunion.System
	tr.do("reunion.new_system", func() { sys = reunion.NewSystem(cfg, o.Mode, w, o.Seed) })
	sys.Kernel = o.Kernel
	return sys
}

// warmParts builds, prefills and warms a system for o.
func warmParts(o reunion.Options, tr *tracer) *reunion.System {
	sys := buildParts(o, tr)
	tr.do("reunion.prefill", sys.Prefill)
	tr.sim("reunion.warmup", o.WarmCycles, func() { sys.Run(o.WarmCycles) })
	return sys
}

// runTrial runs a trial's measurement phase on a warmed or restored
// system through exported calls: statistics reset, fault arming,
// detection hooks, the run to the commit target, and collection, timed
// as simPhase; the commit and architectural digests are timed as
// reunion.digest. It yields the same Result as reunion.Run of the trial.
func runTrial(sys *reunion.System, o reunion.Options, inj *fault.Injection, tr *tracer, simPhase string) (reunion.Result, error) {
	if inj != nil && (inj.Core < 0 || inj.Core >= len(sys.Cores)) {
		return reunion.Result{}, fmt.Errorf("inject core %d out of range", inj.Core)
	}
	var r reunion.Result
	var shot *fault.Shot
	var measStart, fireInstr, detectCycle, detectInstr int64
	detected := false
	tr.do(simPhase, func() {
		sys.ResetStats()
		measStart = sys.EQ.Now()
		if inj != nil {
			target := sys.Cores[inj.Core]
			arch := target
			if !arch.Vocal {
				arch = sys.Pairs[target.Pair].VocalC
			}
			i := *inj
			i.Cycle += measStart
			shot = i.Arm(sys.EQ, target, func(int64) { fireInstr = arch.Stats.Committed })
			for _, p := range sys.Pairs {
				p.OnFaultDetected = func() {
					if detected {
						return
					}
					detected = true
					detectCycle = sys.EQ.Now()
					detectInstr = p.VocalC.Stats.Committed
				}
			}
		}
		sys.ArmCommitDigests(o.CommitTarget)
		ran, _ := sys.RunUntilDone(o.TrialDeadline, func() bool { return sys.DigestsDone() || sys.Failed() })
		r = reunion.Collect(sys, ran)
		r.TrialCycles = ran
	})
	tr.addCycles(simPhase, r.TrialCycles)
	tr.schedule(sys, r.TrialCycles)
	tr.do("reunion.digest", func() {
		r.Unrecoverable = sys.Failed()
		r.CommitDigest, r.DigestOK = sys.CommitDigest()
		r.TrialComplete = sys.DigestsDone() && !r.Unrecoverable
		if inj == nil {
			r.ArchDigest = sys.ArchDigest()
		}
	})
	r.FaultFireCycle, r.DetectLatency = -1, -1
	if shot != nil {
		r.FaultArmed, r.FaultFired = shot.Armed, shot.Fired
		if shot.Fired {
			r.FaultFireCycle = shot.FiredAt - measStart
			r.FaultFireInstr = fireInstr
		}
		if detected {
			r.FaultDetected = true
			r.DetectLatency = detectCycle - shot.FiredAt
			r.DetectLatencyInstr = detectInstr - fireInstr
		}
		for _, c := range sys.Cores {
			r.FaultRetired += c.FaultRetired
			r.FaultSquashed += c.FaultSquashed
		}
	}
	return r, nil
}

// observation is the campaign view of an injected trial against its
// golden run, field for field as reunion's trial runner reports it.
func observation(res, golden reunion.Result, core int) campaign.Observation {
	return campaign.Observation{
		Unrecoverable: res.Unrecoverable,
		Completed:     res.TrialComplete,
		Armed:         res.FaultArmed,
		Fired:         res.FaultFired,
		FireCycle:     res.FaultFireCycle,
		Detected:      res.FaultDetected,
		LatencyCycles: res.DetectLatency,
		LatencyInstrs: res.DetectLatencyInstr,
		Digest:        res.CommitDigest,
		GoldenDigest:  golden.CommitDigest,
		DigestOK:      res.DigestOK && golden.DigestOK,
		Core:          core,
		Retired:       res.FaultRetired,
		Squashed:      res.FaultSquashed,
	}
}

// zeroSDC reports whether an outcome meets Reunion's claim: every
// single-bit fault is masked or detected, never silent or lost.
func zeroSDC(out campaign.Outcome) bool {
	return out == campaign.Masked || out == campaign.Detected
}
