package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"reunion"
	"reunion/internal/fault"
	"reunion/internal/workload"
)

// Checkpointed-warm-state benchmark: host time of the fault-campaign
// trial path with per-trial re-warming from cycle 0 versus snapshot-keyed
// warm reuse (one warmup per cell, one Restore per trial). Every trial's
// Result is compared across the two paths — the speedup only counts if
// classification stays bit-identical. Each entry also records the heap
// bytes one reuse trial allocates (restore plus the measured run); unlike
// the time ratios this is the same on every machine, so -compare gates it
// tightly, and a rewind that reallocates the machine image shows up as a
// many-fold regression. The results go to stdout as a table and to a
// BENCH_snapshot.json trajectory file, alongside the kernel throughput
// baseline in BENCH_kernel.json.

type snapshotEntry struct {
	Workload     string  `json:"workload"`
	Mode         string  `json:"mode"`
	Trials       int     `json:"trials"`
	RewarmSecs   float64 `json:"rewarm_seconds"`
	ReuseSecs    float64 `json:"reuse_seconds"`
	Speedup      float64 `json:"speedup"`
	BitIdentical bool    `json:"bit_identical"`
	// ReuseAllocMB is the mean heap allocation of one reuse trial after
	// the cell's first (which warms): a Restore plus the measured run.
	ReuseAllocMB float64 `json:"reuse_alloc_mb_per_trial"`
}

type snapshotReport struct {
	Schema       string          `json:"schema"`
	Full         bool            `json:"full"`
	WarmCycles   int64           `json:"warm_cycles"`
	CommitTarget int64           `json:"commit_target"`
	Entries      []snapshotEntry `json:"entries"`
	TotalSpeedup float64         `json:"total_speedup"` // summed re-warm / summed reuse host time
}

func runSnapshot(full bool, outPath string) error {
	warm, target, trials := int64(40_000), int64(800), 12
	if full {
		warm, trials = 100_000, 24
	}
	cells := []struct {
		p    workload.Params
		mode reunion.Mode
	}{
		{workload.Apache(), reunion.ModeReunion},
		{workload.OracleOLTP(), reunion.ModeReunion},
		{workload.Ocean(), reunion.ModeNonRedundant},
	}

	rep := snapshotReport{
		Schema:       "reunion-bench/snapshot-reuse/v1",
		Full:         full,
		WarmCycles:   warm,
		CommitTarget: target,
	}
	fmt.Println("Fault-campaign trial path: per-trial re-warm vs checkpointed warm reuse")
	fmt.Printf("  %-12s %-14s %7s %10s %10s %9s %10s %14s\n",
		"workload", "mode", "trials", "rewarm(s)", "reuse(s)", "speedup", "identical", "reuse MB/trial")

	var sumRewarm, sumReuse float64
	for _, cell := range cells {
		base := reunion.Options{
			Mode:         cell.mode,
			Workload:     cell.p,
			Seed:         3,
			WarmCycles:   warm,
			CommitTarget: target,
		}
		cores := base.CoresUnderTest()
		trialOpts := func(i int) reunion.Options {
			o := base
			if i > 0 { // trial 0 is the cell's fault-free golden run
				o.Inject = &fault.Injection{
					Core:  (i - 1) % cores,
					Cycle: int64(100 + 37*i),
					Bit:   uint(i * 7 % 64),
				}
			}
			return o
		}

		// runAll also returns the mean bytes allocated by trials after the
		// first, which under warm reuse are pure restore-and-run trials.
		runAll := func(warmCache *reunion.WarmCache) ([]reunion.Result, float64, float64, error) {
			results := make([]reunion.Result, trials)
			var ms runtime.MemStats
			var allocAfterFirst uint64
			start := time.Now() //reunion:nondeterm-ok host wall-clock for bench reporting
			for i := 0; i < trials; i++ {
				o := trialOpts(i)
				o.Warm = warmCache
				r, err := reunion.Run(o)
				if err != nil {
					return nil, 0, 0, fmt.Errorf("%s/%v trial %d: %w", cell.p.Name, cell.mode, i, err)
				}
				results[i] = r
				if i == 0 {
					runtime.ReadMemStats(&ms)
					allocAfterFirst = ms.TotalAlloc
				}
			}
			//reunion:nondeterm-ok host wall-clock for bench reporting
			secs := time.Since(start).Seconds()
			runtime.ReadMemStats(&ms)
			perTrial := float64(ms.TotalAlloc-allocAfterFirst) / float64(trials-1) / (1 << 20)
			return results, secs, perTrial, nil
		}

		rewarmRes, rewarmSecs, _, err := runAll(nil)
		if err != nil {
			return err
		}
		reuseRes, reuseSecs, reuseAlloc, err := runAll(reunion.NewWarmCache())
		if err != nil {
			return err
		}

		identical := reflect.DeepEqual(rewarmRes, reuseRes)
		if !identical {
			return fmt.Errorf("%s/%v: warm reuse diverged from re-warm baseline", cell.p.Name, cell.mode)
		}
		e := snapshotEntry{
			Workload: cell.p.Name, Mode: cell.mode.String(), Trials: trials,
			RewarmSecs: rewarmSecs, ReuseSecs: reuseSecs,
			Speedup: rewarmSecs / reuseSecs, BitIdentical: identical,
			ReuseAllocMB: reuseAlloc,
		}
		rep.Entries = append(rep.Entries, e)
		sumRewarm += rewarmSecs
		sumReuse += reuseSecs
		fmt.Printf("  %-12s %-14s %7d %10.3f %10.3f %8.2fx %10v %14.2f\n",
			e.Workload, e.Mode, e.Trials, e.RewarmSecs, e.ReuseSecs, e.Speedup, e.BitIdentical, e.ReuseAllocMB)
	}
	rep.TotalSpeedup = sumRewarm / sumReuse
	fmt.Printf("  total: %.3fs re-warm vs %.3fs reuse — %.2fx\n", sumRewarm, sumReuse, rep.TotalSpeedup)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", outPath)
	return nil
}
