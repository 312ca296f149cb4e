package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baseKernelJSON = `{
  "schema": "reunion-bench/kernel-throughput/v1",
  "entries": [
    {"workload": "apache", "mode": "reunion", "kernel": "naive", "kinstr_per_sec": 300.0},
    {"workload": "apache", "mode": "reunion", "kernel": "fastforward", "kinstr_per_sec": 500.0},
    {"workload": "ocean", "mode": "reunion", "kernel": "fastforward", "kinstr_per_sec": 600.0}
  ]
}`

func TestCompareIdentical(t *testing.T) {
	results, geomean, err := compareTrajectories([]byte(baseKernelJSON), []byte(baseKernelJSON), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for _, r := range results {
		if r.Regression {
			t.Errorf("%s: identical trajectories flagged as regression", r.Name)
		}
		if r.Ratio != 1.0 {
			t.Errorf("%s: ratio %v, want 1.0", r.Name, r.Ratio)
		}
	}
	if geomean != 1.0 {
		t.Errorf("geomean %v, want 1.0", geomean)
	}
}

// TestCompareDoctoredRegression is the CI gate's own gate: a synthetically
// doctored trajectory with one entry >10% slower must fail the comparison.
func TestCompareDoctoredRegression(t *testing.T) {
	doctored := strings.Replace(baseKernelJSON, `"kinstr_per_sec": 500.0`, `"kinstr_per_sec": 430.0`, 1) // -14%
	if doctored == baseKernelJSON {
		t.Fatal("doctoring failed")
	}
	results, _, err := compareTrajectories([]byte(baseKernelJSON), []byte(doctored), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	var flagged int
	for _, r := range results {
		if r.Regression {
			flagged++
			if !strings.Contains(r.Name, "apache/reunion/fastforward") {
				t.Errorf("wrong entry flagged: %s", r.Name)
			}
			if math.Abs(r.Ratio-0.86) > 0.001 {
				t.Errorf("ratio %v, want 0.86", r.Ratio)
			}
		}
	}
	if flagged != 1 {
		t.Fatalf("%d entries flagged, want exactly 1", flagged)
	}
}

func TestCompareWithinThreshold(t *testing.T) {
	wobble := strings.Replace(baseKernelJSON, `"kinstr_per_sec": 500.0`, `"kinstr_per_sec": 460.0`, 1) // -8%
	results, geomean, err := compareTrajectories([]byte(baseKernelJSON), []byte(wobble), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Regression {
			t.Errorf("%s: -8%% flagged at a 10%% threshold", r.Name)
		}
	}
	if geomean >= 1.0 {
		t.Errorf("geomean %v should reflect the slowdown", geomean)
	}
}

func TestCompareMissingEntryIsRegression(t *testing.T) {
	shrunk := `{
  "schema": "reunion-bench/kernel-throughput/v1",
  "entries": [
    {"workload": "apache", "mode": "reunion", "kernel": "naive", "kinstr_per_sec": 300.0}
  ]
}`
	results, _, err := compareTrajectories([]byte(baseKernelJSON), []byte(shrunk), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	var missing int
	for _, r := range results {
		if math.IsNaN(r.New) {
			missing++
			if !r.Regression {
				t.Errorf("%s: coverage loss not flagged as regression", r.Name)
			}
		}
	}
	if missing != 2 {
		t.Fatalf("%d missing entries, want 2", missing)
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	other := `{"schema": "reunion-bench/ckptstore-fleet/v1", "local_seconds": 1, "store_seconds": 1}`
	if _, _, err := compareTrajectories([]byte(baseKernelJSON), []byte(other), 0.10); err == nil {
		t.Fatal("schema mismatch not rejected")
	}
	if _, _, err := compareTrajectories([]byte(`{"schema": "bogus/v9"}`), []byte(baseKernelJSON), 0.10); err == nil {
		t.Fatal("unknown schema not rejected")
	}
}

func TestCompareSnapshotSchema(t *testing.T) {
	old := `{"schema": "reunion-bench/snapshot-reuse/v1",
		"entries": [{"workload": "apache", "mode": "reunion", "speedup": 3.0}]}`
	slower := `{"schema": "reunion-bench/snapshot-reuse/v1",
		"entries": [{"workload": "apache", "mode": "reunion", "speedup": 2.0}]}`
	results, _, err := compareTrajectories([]byte(old), []byte(slower), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].Regression {
		t.Fatalf("speedup 3.0 -> 2.0 must regress: %+v", results)
	}
}

// TestCompareSnapshotAlloc gates the per-trial reuse allocation as
// lower-is-better: a rewind that reallocates the machine image again is a
// regression even when the time ratio holds.
func TestCompareSnapshotAlloc(t *testing.T) {
	old := `{"schema": "reunion-bench/snapshot-reuse/v1",
		"entries": [{"workload": "apache", "mode": "reunion", "speedup": 3.0, "reuse_alloc_mb_per_trial": 2.0}]}`
	bloated := `{"schema": "reunion-bench/snapshot-reuse/v1",
		"entries": [{"workload": "apache", "mode": "reunion", "speedup": 3.0, "reuse_alloc_mb_per_trial": 40.0}]}`
	results, _, err := compareTrajectories([]byte(old), []byte(bloated), 0.35)
	if err != nil {
		t.Fatal(err)
	}
	var flagged []string
	for _, r := range results {
		if r.Regression {
			flagged = append(flagged, r.Name)
		}
	}
	if len(flagged) != 1 || flagged[0] != "apache/reunion reuse-alloc-MB/trial" {
		t.Fatalf("flagged %v, want [apache/reunion reuse-alloc-MB/trial]", flagged)
	}
	// A baseline written before the field existed gates nothing new.
	legacy := `{"schema": "reunion-bench/snapshot-reuse/v1",
		"entries": [{"workload": "apache", "mode": "reunion", "speedup": 3.0}]}`
	results, _, err = compareTrajectories([]byte(legacy), []byte(bloated), 0.35)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Regression {
		t.Fatalf("legacy baseline: %+v, want one ungated speedup entry", results)
	}
}

func TestCompareCkptstoreSchema(t *testing.T) {
	old := `{"schema": "reunion-bench/ckptstore-fleet/v1", "local_seconds": 4.0, "store_seconds": 6.0}`
	slower := `{"schema": "reunion-bench/ckptstore-fleet/v1", "local_seconds": 4.0, "store_seconds": 7.5}`
	results, _, err := compareTrajectories([]byte(old), []byte(slower), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	var flagged []string
	for _, r := range results {
		if r.Regression {
			flagged = append(flagged, r.Name)
		}
	}
	if len(flagged) != 1 || flagged[0] != "fleet store_seconds" {
		t.Fatalf("flagged %v, want [fleet store_seconds]", flagged)
	}
}

// TestRunCompareExitCodes drives the command-level wrapper end to end
// against files on disk, the way CI invokes it.
func TestRunCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	if err := os.WriteFile(oldPath, []byte(baseKernelJSON), 0o644); err != nil {
		t.Fatal(err)
	}

	doctored := strings.Replace(baseKernelJSON, `"kinstr_per_sec": 600.0`, `"kinstr_per_sec": 100.0`, 1)
	if err := os.WriteFile(newPath, []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	code, err := runCompare(oldPath, newPath, 0.10, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("doctored regression: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("output lacks REGRESSION marker:\n%s", out.String())
	}

	if err := os.WriteFile(newPath, []byte(baseKernelJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	code, err = runCompare(oldPath, newPath, 0.10, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("identical trajectories: exit %d, want 0\n%s", code, out.String())
	}

	if code, _ := runCompare(filepath.Join(dir, "absent.json"), newPath, 0.10, &out); code != 2 {
		t.Errorf("unreadable old file: exit %d, want 2", code)
	}
}
