package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.90, true}, {99, 0.90, false}, {40, 0.75, true}, {39, 0.75, false},
		{20, 0.50, true}, {19, 0.50, false}, {0, 0.50, false},
	} {
		if got := percentileOK(c.n, c.p); got != c.want {
			t.Errorf("percentileOK(%d, %.2f) = %v, want %v (beyond %d)", c.n, c.p, got, c.want, beyond(c.n, c.p))
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 0.90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v, want 1, 4", q1, q3)
	}
	if got := spread([]float64{10, 10, 10, 10}); got != 0 {
		t.Errorf("spread of constant values = %v", got)
	}
}

func TestHeapLiveCountsRetainedState(t *testing.T) {
	base := heapLiveMB(nil)
	held := make([]byte, 64<<20)
	for i := range held {
		held[i] = byte(i)
	}
	with := heapLiveMB(held)
	if d := with - base; d < 60 || d > 80 {
		t.Fatalf("live heap grew %.1f MB while holding 67 MB", d)
	}
	runtime.KeepAlive(held)
	held = nil
	if after := heapLiveMB(nil); with-after < 60 {
		t.Fatalf("live heap fell only %.1f MB after dropping 67 MB", with-after)
	}
}

// TestHostRef checks the host reference: its buffer stays off the Go
// heap, samples are counted from a mark, maybe waits refEvery between
// samples, and a nil reference samples nothing and reads as nominal.
func TestHostRef(t *testing.T) {
	base := heapLiveMB(nil)
	h, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	if d := heapLiveMB(h) - base; d > 1 {
		t.Errorf("live heap grew %.1f MB with the 64 MB reference buffer mapped", d)
	}
	h.sample()
	n, spent0 := h.mark()
	h.sample()
	h.maybe() // right after a sample: nothing to do
	n1, spent1 := h.mark()
	if n1 != n+1 || spent1 <= spent0 {
		t.Errorf("after one more sample: %d samples and %v spent, had %d and %v", n1, spent1, n, spent0)
	}
	if ms := h.since(n); !(ms > 0) {
		t.Errorf("median sample time %v ms", ms)
	}
	h.last = time.Now().Add(-refEvery)
	h.maybe()
	if n2, _ := h.mark(); n2 != n1+1 {
		t.Errorf("maybe after refEvery took %d samples", n2-n1)
	}
	var none *hostRef
	none.sample()
	none.maybe()
	none.close()
	if got := none.since(0); got != refNominal {
		t.Errorf("nil reference reads %v ms, want the nominal %v", got, refNominal)
	}
}

func TestPhaseCoverage(t *testing.T) {
	tr := newTracer()
	for i := 0; i < 3; i++ {
		_ = tr.op(func() error {
			tr.do("reunion.simulate", func() { time.Sleep(20 * time.Millisecond) })
			time.Sleep(20 * time.Millisecond) // outside every phase
			return nil
		})
	}
	if c := tr.coveragePct(); c < 30 || c > 70 {
		t.Errorf("coverage %.1f%% with half the op outside phases", c)
	}
	if o := tr.overheadMS(); o < 15 || o > 40 {
		t.Errorf("uncovered time %.1f ms per op, want about 20", o)
	}

	full := newTracer()
	_ = full.op(func() error {
		full.do("reunion.restore", func() { time.Sleep(10 * time.Millisecond) })
		full.do("reunion.simulate", func() { time.Sleep(10 * time.Millisecond) })
		return nil
	})
	if c := full.coveragePct(); c < 95 {
		t.Errorf("coverage %.1f%% when the op is all phases", c)
	}
	if full.phases["reunion.restore"].calls != 1 || full.meanMS("reunion.restore") < 10 {
		t.Errorf("restore phase not recorded: %+v", full.phases["reunion.restore"])
	}
	if a := full.meanAllocMB("reunion.absent"); a != 0 {
		t.Errorf("absent phase reads %v", a)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"reunion/internal/cpu.(*Core).Tick":         "cpu",
		"reunion/internal/coherence.(*L2).RunEvent": "coherence",
		"reunion.(*System).Step":                    "system",
		"reunion.Run":                               "system",
		"reunion/internal/stats.PerMillion":         "other",
		"reunion/perfbench.runTrial":                "",
		"runtime.memmove":                           "",
		"main.main":                                 "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestProfileLabelsSplitPhases(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	pprof.Do(context.Background(), pprof.Labels("phase", "reunion.simulate"), func(context.Context) { spin(300 * time.Millisecond) })
	spin(100 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	labelled := p.layerNanos(map[string]bool{"reunion.simulate": true})
	total := int64(0)
	for _, v := range labelled {
		total += v
	}
	// The spin loop is outside the module, so it lands on "runtime".
	if total < int64(150*time.Millisecond) || labelled["runtime"] != total {
		t.Errorf("labelled samples %v, want ~300ms all charged to runtime", labelled)
	}
}

// fakeBench runs ops that sleep and allocate, so the reporting paths can
// be checked without simulating.
type fakeBench struct{}

var fakeSink []byte

func (fakeBench) run(n int) ([]*op, error) {
	ops := make([]*op, n)
	for i := range ops {
		t0 := time.Now()
		time.Sleep(time.Millisecond)
		fakeSink = make([]byte, 1<<20)
		ops[i] = &op{kind: "cell", rep: i, lat: time.Since(t0)}
		ops[i].res.Committed, ops[i].res.Cycles = 1000, 500
	}
	return ops, nil
}

func (fakeBench) verify([]*op) error { return nil }

func (fakeBench) replay(tr *tracer, ops []*op) error {
	for range ops {
		_ = tr.op(func() error {
			tr.sim("reunion.simulate", 500, func() { time.Sleep(time.Millisecond) })
			return nil
		})
	}
	return nil
}

// TestMetricsMatchBenchmarkFile checks that a timed run reports exactly
// the end-to-end metrics of BENCHMARK.json and a traced run exactly its
// per-layer metrics, with their units, and that the file keeps the
// limits its readers enforce.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] || (better != "higher" && better != "lower") {
			t.Errorf("bad or repeated metric %q unit %q better %q", name, unit, better)
		}
		seen[name] = true
	}
	for i, w := range bf.Workloads {
		check(w.Name, "x", "lower")
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json", i, w.Name)
		}
	}
	for _, m := range bf.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	for _, m := range bf.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}

	dir := t.TempDir()
	fake := workloadSpec{name: "fake", rate: 10, unit: 2, setup: func(config) (bench, error) { return fakeBench{}, nil }}
	a := args{seed: 7, workloadSeed: 7, seconds: 1}
	timed, err := timedRun(fake, a, dir, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(timed.metrics) != len(bf.EndToEnd) {
		t.Fatalf("timed run reports %d metrics, BENCHMARK.json lists %d", len(timed.metrics), len(bf.EndToEnd))
	}
	for i, m := range timed.metrics {
		if want := bf.EndToEnd[i]; m.name != want.Name || m.unit != want.Unit || m.value <= 0 || math.IsNaN(m.value) {
			t.Errorf("timed metric %d: %+v, want %s in %s and positive", i, m, want.Name, want.Unit)
		}
	}
	traced, err := tracedRun(fake, a, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.metrics) != len(bf.PerLayer) {
		t.Fatalf("traced run reports %d metrics, BENCHMARK.json lists %d", len(traced.metrics), len(bf.PerLayer))
	}
	for i, m := range traced.metrics {
		if want := bf.PerLayer[i]; m.name != want.Name || m.unit != want.Unit {
			t.Errorf("traced metric %d: %s in %s, want %s in %s", i, m.name, m.unit, want.Name, want.Unit)
		}
		if m.name == "reunion.phase_coverage_pct" && m.value < 95 {
			t.Errorf("phase coverage %.1f%% on an op that is all phases", m.value)
		}
	}
	var line map[string]any
	if err := json.Unmarshal([]byte(traced.line()), &line); err != nil {
		t.Fatalf("result line is not JSON: %v", err)
	}
}
