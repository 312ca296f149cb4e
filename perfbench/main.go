// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three fixed workloads (campaign-trials, sweep-fig6, ckpt-fleet)
// in a single process, checks the simulated outputs, and prints every
// end-to-end metric; with --trace 1 it replays the workload's ops through
// the lower-level public calls and prints the per-layer metrics instead.
// See README.md in this directory.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload campaign-trials --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --selfcheck 5 --seconds 30
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"reunion"
)

var processStart = time.Now()

// The pinned digests were taken at the default seeds. The default
// workload seed is the one the paper experiments run at.
var (
	defaultSeed         uint64 = 1
	defaultWorkloadSeed        = reunion.DefaultSeeds(1)[0]
)

//go:embed pinned.json
var pinnedJSON []byte

// Runtime settings, fixed rather than inherited from the environment.
// One worker needs one P; a second P would run the collector beside it
// and make timings depend on whether the other CPU is free.
const (
	gomaxprocs  = 1
	gogc        = 100
	setupPasses = 7 // set-up passes per timed run; setup_s is their median
	// Host-reference samples between set-up passes, for scaling setup_s.
	setupRefSamples = 3
)

type args struct {
	workload     string
	seed         uint64
	workloadSeed uint64
	seconds      int
	trace        bool
}

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// result is the benchmark's last line of output.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

func (r result) line() string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.correct, r.attempted, r.failed)
	for i, m := range r.metrics {
		if i > 0 {
			b.WriteString(", ")
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
	}
	b.WriteString("}}")
	return b.String()
}

func main() { os.Exit(run()) }

func run() int {
	var a args
	var selfcheck int
	flag.StringVar(&a.workload, "workload", "", "workload to run: campaign-trials, sweep-fig6, ckpt-fleet or all")
	flag.Uint64Var(&a.seed, "seed", defaultSeed, "campaign seed: fault draws and op order")
	flag.Uint64Var(&a.workloadSeed, "workload-seed", defaultWorkloadSeed, "seed of the simulated programs")
	flag.IntVar(&a.seconds, "seconds", 30, "nominal measured seconds; sizes the fixed op list")
	trace := flag.Int("trace", 0, "1 replays the ops under the phase tracer and prints per-layer metrics")
	flag.IntVar(&selfcheck, "selfcheck", 0, "repeat each workload this many times (seeds 1..n) and report each metric's spread against its bound")
	flag.Parse()
	a.trace = *trace == 1
	if a.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)
	debug.SetGCPercent(gogc)

	var specs []workloadSpec
	for _, w := range workloads {
		if a.workload == w.name || a.workload == "all" || (a.workload == "" && selfcheck > 0) {
			specs = append(specs, w)
		}
	}
	if len(specs) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", a.workload)
		return 2
	}
	if selfcheck > 0 {
		return selfCheck(a, specs, selfcheck)
	}
	fmt.Printf("# env GOMAXPROCS=%d GOGC=%d nproc=%d go=%s seed=%d workload-seed=%#x seconds=%d trace=%t\n",
		runtime.GOMAXPROCS(0), gogc, runtime.NumCPU(), runtime.Version(), a.seed, a.workloadSeed, a.seconds, a.trace)

	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	code := 0
	start := processStart
	for _, w := range specs {
		var r result
		var err error
		if a.trace {
			r, err = tracedRun(w, a, dir)
		} else {
			r, err = timedRun(w, a, dir, start)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if len(specs) > 1 {
			fmt.Printf("# %s %s\n", w.name, r.line())
		} else {
			fmt.Println(r.line())
		}
		if !r.correct {
			code = 1
		}
		start = time.Now()
	}
	if len(specs) > 1 {
		fmt.Printf(`{"correct": %t, "attempted": %d, "failed": 0, "metrics": {}}`+"\n", code == 0, len(specs))
	}
	return code
}

// opCount sizes a workload's fixed op list from the nominal seconds: a
// whole number of rounds, at least two so every pinned op is in it.
func opCount(w workloadSpec, seconds int, trace bool) int {
	n := int(math.Ceil(float64(seconds) * w.rate / float64(w.unit)))
	if trace {
		n = (n + 1) / 2
	}
	return max(n, 2) * w.unit
}

func timedRun(w workloadSpec, a args, dir string, start time.Time) (result, error) {
	ref, err := newHostRef()
	if err != nil {
		return result{}, fmt.Errorf("host reference: %w", err)
	}
	defer ref.close()
	c := config{seed: a.seed, workloadSeed: a.workloadSeed, dir: dir, ref: ref}
	var b bench
	var setups []float64
	for k := 0; k < setupPasses; k++ {
		// The first pass is timed from process start; each later one
		// starts from a collected heap, as the first does. The host is
		// sampled between passes, after the collection.
		b = nil
		t0 := start
		if k > 0 {
			runtime.GC()
			for i := 0; i < setupRefSamples; i++ {
				ref.sample()
			}
			t0 = time.Now()
		}
		var err error
		if b, err = w.setup(c); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupRef := ref.since(0)
	runtime.GC()

	// The window's host reading starts with a sample before the first op
	// and ends with one after the last; the samples between ops are taken
	// out of the window's time.
	nw, _ := ref.mark()
	ref.sample()
	_, spent0 := ref.mark()
	rt0 := readRuntime()
	t0 := time.Now()
	ops, err := b.run(opCount(w, a.seconds, false))
	elapsed := time.Since(t0)
	rt1 := readRuntime()
	_, spent1 := ref.mark()
	ref.sample()
	if err != nil {
		return result{}, err
	}
	live := heapLiveMB(b)
	window := (elapsed - (spent1 - spent0)).Seconds()
	windowRef := ref.since(nw)

	var lats []float64
	var committed int64
	failed := 0
	for _, x := range ops {
		lats = append(lats, ms(x.lat))
		committed += x.res.Committed
		if x.err != nil {
			failed++
			if failed <= 5 {
				fmt.Printf("# failed op: %v\n", x.err)
			}
		}
	}
	correct := failed == 0
	if err := b.verify(ops); err != nil {
		fmt.Printf("# check failed: %v\n", err)
		correct = false
	}
	if !checkPin(w.name, a, ops) {
		correct = false
	}
	fmt.Printf("# %s: %d ops, %d failed, window %.3f s, set-up passes %v s\n", w.name, len(ops), failed, window, fmtFloats(setups))
	reportTail(lats)

	// Host seconds are scaled to the nominal host: a second in which the
	// reference ran slower than nominal counts as less than a second.
	nominal := window * refNominal / windowRef
	fmt.Printf("# host reference: window median %.3f ms over %d samples, set-up %.3f ms; nominal %.1f ms\n",
		windowRef, len(ref.samples)-nw, setupRef, refNominal)
	fmt.Printf("# unscaled: ops_per_s %.4f, setup_s %.4f\n", float64(len(ops)-failed)/window, median(setups))

	return result{correct: correct, attempted: len(ops), failed: failed, metrics: []metric{
		{"ops_per_s", "1/s", float64(len(ops)-failed) / nominal},
		{"sim_kinstr_per_s", "kinstr/s", float64(committed) / 1e3 / nominal},
		{"alloc_mb_per_op", "MB", float64(rt1.allocs-rt0.allocs) / 1e6 / float64(len(ops))},
		{"heap_live_mb", "MB", live},
		{"setup_s", "s", median(setups) * refNominal / setupRef},
	}}, nil
}

// reportTail prints the median op latency and the highest of p90/p75
// that keeps at least minBeyond samples beyond it, with the sample count.
// They are reported, not gated: on a host whose speed switches between
// states for tens of seconds, a median of ops snaps to one state's
// cluster and spreads wider across runs than the window throughput.
func reportTail(lats []float64) {
	n := len(lats)
	fmt.Printf("# op_ms p50 %.3f (n=%d)", median(lats), n)
	switch {
	case percentileOK(n, 0.90):
		fmt.Printf(", p90 %.3f (%d beyond)\n", percentile(lats, 0.90), beyond(n, 0.90))
	case percentileOK(n, 0.75):
		fmt.Printf(", p90 dropped: %d ops leave %d beyond it (needs %d); p75 %.3f (%d beyond)\n",
			n, beyond(n, 0.90), minBeyond, percentile(lats, 0.75), beyond(n, 0.75))
	default:
		fmt.Printf(", p90 dropped: %d ops leave %d beyond it (needs %d)\n", n, beyond(n, 0.90), minBeyond)
	}
}

func fmtFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return "[" + strings.Join(s, " ") + "]"
}

// checkPin compares the run's pinned digest with the one recorded for
// the default seeds. Other seeds rely on the in-run checks alone.
func checkPin(name string, a args, ops []*op) bool {
	got := pinDigest(ops)
	if a.seed != defaultSeed || a.workloadSeed != defaultWorkloadSeed {
		fmt.Printf("# pinned digest %s (not checked: non-default seed)\n", got)
		return true
	}
	var pins map[string]string
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		fmt.Printf("# pinned digests unreadable: %v\n", err)
		return false
	}
	want, ok := pins[name]
	if !ok || want != got {
		fmt.Printf("# pinned digest MISMATCH: got %s, pinned %q\n", got, want)
		return false
	}
	fmt.Printf("# pinned digest %s matches\n", got)
	return true
}
