package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Trajectory comparison: `reunion-bench -compare old.json new.json` diffs
// two benchmark trajectory files of the same schema, printing a per-entry
// delta table and the geomean improvement ratio, and exits non-zero when
// any entry regresses by more than -threshold (fractional, default 0.10).
// CI runs this against the committed BENCH_*.json baselines so a
// performance regression fails the build the same way a correctness
// regression does; see DESIGN.md "Performance" for how to read the output
// and the baseline-update procedure.

// cmpMetric is one comparable scalar extracted from a trajectory file.
type cmpMetric struct {
	Name         string
	Value        float64
	HigherBetter bool
}

// extractMetrics pulls the comparable scalars out of a trajectory file,
// keyed by the schema string the bench writers stamp into every report.
func extractMetrics(data []byte) (schema string, ms []cmpMetric, err error) {
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return "", nil, fmt.Errorf("not a trajectory file: %w", err)
	}
	switch head.Schema {
	case "reunion-bench/kernel-throughput/v1":
		var rep throughputReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return head.Schema, nil, err
		}
		for _, e := range rep.Entries {
			ms = append(ms, cmpMetric{
				Name:         e.Workload + "/" + e.Mode + "/" + e.Kernel + " kinstr/s",
				Value:        e.KInstrPerSec,
				HigherBetter: true,
			})
		}
	case "reunion-bench/snapshot-reuse/v1":
		var rep struct {
			Entries []struct {
				Workload string  `json:"workload"`
				Mode     string  `json:"mode"`
				Speedup  float64 `json:"speedup"`
				AllocMB  float64 `json:"reuse_alloc_mb_per_trial"`
			} `json:"entries"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			return head.Schema, nil, err
		}
		for _, e := range rep.Entries {
			ms = append(ms, cmpMetric{
				Name:         e.Workload + "/" + e.Mode + " reuse-speedup",
				Value:        e.Speedup,
				HigherBetter: true,
			})
			// Files written before the allocation field existed carry no
			// value: no metric, so nothing to gate against yet.
			if e.AllocMB > 0 {
				ms = append(ms, cmpMetric{
					Name:         e.Workload + "/" + e.Mode + " reuse-alloc-MB/trial",
					Value:        e.AllocMB,
					HigherBetter: false,
				})
			}
		}
	case "reunion-bench/ckptstore-fleet/v1":
		var rep struct {
			LocalSeconds float64 `json:"local_seconds"`
			StoreSeconds float64 `json:"store_seconds"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			return head.Schema, nil, err
		}
		ms = append(ms,
			cmpMetric{Name: "fleet local_seconds", Value: rep.LocalSeconds, HigherBetter: false},
			cmpMetric{Name: "fleet store_seconds", Value: rep.StoreSeconds, HigherBetter: false})
	case "":
		return "", nil, fmt.Errorf("no \"schema\" field")
	default:
		return head.Schema, nil, fmt.Errorf("unknown trajectory schema %q", head.Schema)
	}
	return head.Schema, ms, nil
}

// compareResult is one matched old/new metric pair.
type compareResult struct {
	Name     string
	Old, New float64
	// Ratio is the improvement factor (>1 is better regardless of metric
	// direction: new/old for higher-is-better, old/new for lower-is-better).
	Ratio      float64
	Regression bool
}

// compareTrajectories matches metrics by name and flags any entry whose
// improvement ratio falls below 1-threshold as a regression.
func compareTrajectories(oldData, newData []byte, threshold float64) (results []compareResult, geomean float64, err error) {
	oldSchema, oldMs, err := extractMetrics(oldData)
	if err != nil {
		return nil, 0, fmt.Errorf("old: %w", err)
	}
	newSchema, newMs, err := extractMetrics(newData)
	if err != nil {
		return nil, 0, fmt.Errorf("new: %w", err)
	}
	if oldSchema != newSchema {
		return nil, 0, fmt.Errorf("schema mismatch: old %q vs new %q", oldSchema, newSchema)
	}
	oldBy := make(map[string]cmpMetric, len(oldMs))
	for _, m := range oldMs {
		oldBy[m.Name] = m
	}
	logSum, n := 0.0, 0
	for _, m := range newMs {
		o, ok := oldBy[m.Name]
		if !ok {
			continue // new coverage has no baseline yet
		}
		delete(oldBy, m.Name)
		r := compareResult{Name: m.Name, Old: o.Value, New: m.Value}
		switch {
		case o.Value <= 0 || m.Value <= 0:
			r.Ratio = math.NaN() // degenerate baseline; report, never gate
		case m.HigherBetter:
			r.Ratio = m.Value / o.Value
		default:
			r.Ratio = o.Value / m.Value
		}
		if !math.IsNaN(r.Ratio) {
			r.Regression = r.Ratio < 1-threshold
			logSum += math.Log(r.Ratio)
			n++
		}
		results = append(results, r)
	}
	// A metric present in the baseline but missing from the new run is a
	// coverage loss, reported as a regression (ratio 0) so it cannot pass
	// silently.
	for name := range oldBy {
		results = append(results, compareResult{
			Name: name, Old: oldBy[name].Value, New: math.NaN(),
			Ratio: 0, Regression: true,
		})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	if len(results) == 0 {
		return nil, 0, fmt.Errorf("no comparable metrics (schema %s)", oldSchema)
	}
	if n > 0 {
		geomean = math.Exp(logSum / float64(n))
	} else {
		geomean = math.NaN()
	}
	return results, geomean, nil
}

// runCompare loads both files, prints the delta table to w, and returns
// the process exit code: 0 when no entry regresses past the threshold,
// 1 otherwise.
func runCompare(oldPath, newPath string, threshold float64, w io.Writer) (int, error) {
	oldData, err := os.ReadFile(oldPath)
	if err != nil {
		return 2, err
	}
	newData, err := os.ReadFile(newPath)
	if err != nil {
		return 2, err
	}
	results, geomean, err := compareTrajectories(oldData, newData, threshold)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(w, "Trajectory comparison: %s -> %s (threshold %.0f%%)\n",
		oldPath, newPath, threshold*100)
	nameW := 4
	for _, r := range results {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	fmt.Fprintf(w, "  %-*s %14s %14s %9s\n", nameW, "entry", "old", "new", "delta")
	regressions := 0
	for _, r := range results {
		switch {
		case math.IsNaN(r.New):
			fmt.Fprintf(w, "  %-*s %14.1f %14s %9s  MISSING\n", nameW, r.Name, r.Old, "-", "-")
		case math.IsNaN(r.Ratio):
			fmt.Fprintf(w, "  %-*s %14.1f %14.1f %9s  (non-positive baseline; not gated)\n",
				nameW, r.Name, r.Old, r.New, "-")
		default:
			flag := ""
			if r.Regression {
				flag = "  REGRESSION"
			}
			fmt.Fprintf(w, "  %-*s %14.1f %14.1f %+8.1f%%%s\n",
				nameW, r.Name, r.Old, r.New, (r.Ratio-1)*100, flag)
		}
		if r.Regression {
			regressions++
		}
	}
	if math.IsNaN(geomean) {
		fmt.Fprintf(w, "  geomean: n/a\n")
	} else {
		fmt.Fprintf(w, "  geomean: %+.1f%% (improvement ratio %.3fx)\n", (geomean-1)*100, geomean)
	}
	if regressions > 0 {
		fmt.Fprintf(w, "  FAIL: %d %s past the %.0f%% threshold\n",
			regressions, plural(regressions, "regression"), threshold*100)
		return 1, nil
	}
	fmt.Fprintf(w, "  OK: no entry regresses past the %.0f%% threshold\n", threshold*100)
	return 0, nil
}

func plural(n int, s string) string {
	if n == 1 {
		return s
	}
	return s + "s"
}
