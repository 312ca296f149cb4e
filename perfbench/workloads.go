package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"time"

	"reunion"
	"reunion/internal/campaign"
	"reunion/internal/ckptstore"
	"reunion/internal/dist"
	"reunion/internal/fault"
	"reunion/internal/obs"
	"reunion/internal/sim"
	"reunion/internal/sweep"
)

// config is what a workload's set-up receives.
type config struct {
	seed         uint64   // campaign seed: fault draws and op order
	workloadSeed uint64   // seed of the simulated programs
	dir          string   // scratch directory for journals and the store
	ref          *hostRef // sampled between timed ops; nil in traced runs
}

// op is one timed operation and what it produced.
type op struct {
	kind string // trial, cell, publish or cold
	cell int
	rep  int // how many earlier ops of the list ran the same cell and kind
	lat  time.Duration
	res  reunion.Result
	out  campaign.Outcome
	blob uint64 // publish: blob length and CRC footer folded together
	err  error

	trial campaign.Trial               // campaign-trials: the engine's draw
	point sweep.Point[reunion.Options] // campaign-trials: the engine's point
}

// pinFields are the fixed simulated fields of an op that the pinned
// digest covers.
func (o *op) pinFields() []uint64 {
	r := o.res
	switch o.kind {
	case "publish":
		return []uint64{o.blob}
	case "cell":
		return []uint64{uint64(r.Cycles), uint64(r.Committed), uint64(r.Compares),
			uint64(r.Recoveries), uint64(r.L2Misses), uint64(r.MemAccesses)}
	}
	return []uint64{uint64(r.TrialCycles), uint64(r.Committed), r.CommitDigest, uint64(o.out)}
}

// bench is one workload's prepared state.
type bench interface {
	// run executes the fixed op list and returns one op per entry, in
	// list order. A failed op carries its error; run fails only when
	// the list could not be executed at all.
	run(n int) ([]*op, error)
	// verify makes the untimed checks that follow the timed window.
	verify(ops []*op) error
	// replay re-runs ops through lower-level public calls under tr and
	// fails if any replayed op differs from its timed run.
	replay(tr *tracer, ops []*op) error
}

// restoreObserver is a bench whose warm cache can report its restores.
type restoreObserver interface {
	observe(reg *obs.Registry)
}

type workloadSpec struct {
	name  string
	rate  float64 // nominal ops per second: sizes the op list from --seconds
	unit  int     // the op list is a whole number of rounds of this many ops
	setup func(c config) (bench, error)
}

// The workloads, in BENCHMARK.json order. Each stresses a different
// layer (see README.md): campaign-trials is restore-bound, sweep-fig6 is
// tick-bound and never restores or serializes, ckpt-fleet is
// serialization- and store-bound.
var workloads = []workloadSpec{
	{"campaign-trials", 13, 3, setupCampaign},
	{"sweep-fig6", 2, 8, setupSweep},
	{"ckpt-fleet", 2.6, 4, setupFleet},
}

func mix(seed uint64, parts ...uint64) uint64 {
	h := sim.Mix64(seed ^ 0x9e3779b97f4a7c15)
	for _, p := range parts {
		h = sim.Mix64(h ^ p)
	}
	return h
}

// ---- campaign-trials ----------------------------------------------------

var campaignCells = []string{"apache", "zeus", "oracle-oltp"}

type campaignBench struct {
	c      config
	warm   *reunion.WarmCache
	golden []reunion.Result
	model  campaign.FaultModel
}

func setupCampaign(c config) (bench, error) {
	b := &campaignBench{c: c, warm: reunion.NewWarmCache(),
		model: campaign.FaultModel{BitLo: 0, BitHi: 63, WindowLo: 0, WindowHi: commitTarget}}
	// Golden runs warm each cell and checkpoint it in the cache.
	for _, name := range campaignCells {
		o := trialOptions(name, c.workloadSeed)
		o.Warm = b.warm
		g, err := reunion.Run(o)
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", name, err)
		}
		if !g.DigestOK {
			return nil, fmt.Errorf("golden %s: no commit digest", name)
		}
		b.golden = append(b.golden, g)
	}
	return b, nil
}

func (b *campaignBench) observe(reg *obs.Registry) { b.warm.Observe(obs.Scope{Metrics: reg}) }

// timedSink journals each trial record and stamps its op: an op's
// latency is the time since the previous record, so the ops tile the
// window (restore, simulate, classify and emit of one trial) apart from
// the host-reference samples taken between them.
type timedSink struct {
	j    *dist.Journal
	ref  *hostRef
	ops  []*op
	last time.Time
}

func (s *timedSink) Write(rec sweep.Record) error {
	if err := s.j.Write(rec); err != nil {
		return err
	}
	o := s.ops[rec.Index]
	o.lat = time.Since(s.last)
	out, ok := parseOutcome(rec.Labels["outcome"])
	o.out = out
	if o.err == nil && (!ok || !zeroSDC(out)) {
		o.err = fmt.Errorf("trial %d classified %s", rec.Index, rec.Labels["outcome"])
	}
	s.ref.maybe() // between trials, outside both trials' latency
	s.last = time.Now()
	return nil
}

func (s *timedSink) Close() error { return nil }

func parseOutcome(s string) (campaign.Outcome, bool) {
	for _, o := range campaign.Outcomes() {
		if o.String() == s {
			return o, true
		}
	}
	return 0, false
}

// spec is the campaign of n trials: rounds × workload cells with one
// trial each, so consecutive trials visit the cells in turn. A trial's
// fault draw depends on its round, cell and the campaign seed.
func (b *campaignBench) spec(n int) campaign.Spec[reunion.Options] {
	rounds := make([]int, n/len(campaignCells))
	for i := range rounds {
		rounds[i] = i
	}
	return campaign.Spec[reunion.Options]{
		Name: "perfbench-campaign",
		Matrix: sweep.Spec[reunion.Options]{Name: "perfbench-campaign", Axes: []sweep.Axis[reunion.Options]{
			sweep.NewAxis("round", rounds, strconv.Itoa, func(*reunion.Options, int) {}),
			sweep.NewAxis("workload", campaignCells, func(s string) string { return s },
				func(o *reunion.Options, s string) { *o = trialOptions(s, b.c.workloadSeed) }),
		}},
		Model:  b.model,
		Trials: 1,
		Seed:   b.c.seed,
	}
}

func (b *campaignBench) run(n int) ([]*op, error) {
	spec := b.spec(n)
	ops := make([]*op, spec.Matrix.Size())
	for i := range ops {
		ops[i] = &op{kind: "trial", cell: i % len(campaignCells), rep: i / len(campaignCells)}
	}
	plan, err := dist.NewPlan(spec.Name, len(ops), 0, 1)
	if err != nil {
		return nil, err
	}
	j, err := dist.Create(filepath.Join(b.c.dir, "campaign.journal"), plan)
	if err != nil {
		return nil, err
	}
	sink := &timedSink{j: j, ref: b.c.ref, ops: ops}
	eng := campaign.Engine[reunion.Options]{
		Spec: spec, Parallelism: 1, Sink: sink,
		RunTrial: func(_ context.Context, pt sweep.Point[reunion.Options], t campaign.Trial) campaign.Observation {
			o := pt.Config
			o.Warm = b.warm
			inj := fault.Injection{Core: t.Core(o.CoresUnderTest()), Cycle: t.Cycle, Bit: t.Bit}
			o.Inject = &inj
			res, err := reunion.Run(o)
			x := ops[t.Cell]
			x.res, x.trial, x.point, x.err = res, t, pt, err
			if err != nil {
				return campaign.Observation{Err: err}
			}
			return observation(res, b.golden[x.cell], inj.Core)
		},
	}
	sink.last = time.Now()
	_, err = eng.Run(context.Background())
	if ferr := dist.SealOrClose(j, err); err == nil {
		err = ferr
	}
	return ops, err
}

// verify checks the first trial of each cell against reunion's own
// trial runner, so the timed runner stays a faithful copy of it.
func (b *campaignBench) verify(ops []*op) error {
	runner := reunion.TrialRunnerWarm(b.model, b.warm)
	for _, o := range ops {
		if o.rep != 0 || o.err != nil {
			continue
		}
		want := runner(context.Background(), o.point, o.trial)
		got := observation(o.res, b.golden[o.cell], want.Core)
		if want.Err != nil || !reflect.DeepEqual(got, want) {
			return fmt.Errorf("trial %s: runner observation %+v, benchmark %+v", o.point.Name(), want, got)
		}
	}
	return nil
}

// replay warms its own copy of each cell, then replays each trial as
// restore, simulate, digest, classify and emit.
func (b *campaignBench) replay(tr *tracer, ops []*op) error {
	// The timed ops are done: dropping their warm cache keeps the
	// replay's live heap, and so its GC cost, the size of the timed run's.
	b.warm = nil
	type cellState struct {
		sys *reunion.System
		cp  *reunion.Checkpoint
	}
	cells := make([]cellState, len(campaignCells))
	for i, name := range campaignCells {
		o := trialOptions(name, b.c.workloadSeed)
		sys := warmParts(o, tr)
		var cp *reunion.Checkpoint
		tr.do("reunion.snapshot", func() { cp = sys.Snapshot() })
		tr.do("reunion.restore", func() { sys.Restore(cp) })
		g, err := runTrial(sys, o, nil, tr, "reunion.golden")
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(g, b.golden[i]) {
			return fmt.Errorf("replayed golden %s differs from reunion.Run", name)
		}
		cells[i] = cellState{sys, cp}
	}
	plan, err := dist.NewPlan("perfbench-replay", len(ops), 0, 1)
	if err != nil {
		return err
	}
	j, err := dist.Create(filepath.Join(b.c.dir, "replay.journal"), plan)
	if err != nil {
		return err
	}
	for k, x := range ops {
		err = tr.op(func() error {
			st := cells[x.cell]
			o := x.point.Config
			tr.do("reunion.restore", func() { st.sys.Restore(st.cp) })
			inj := fault.Injection{Core: x.trial.Core(o.CoresUnderTest()), Cycle: x.trial.Cycle, Bit: x.trial.Bit}
			res, err := runTrial(st.sys, o, &inj, tr, "reunion.simulate")
			if err != nil {
				return err
			}
			var out campaign.Outcome
			tr.do("campaign.classify", func() { out = campaign.Classify(observation(res, b.golden[x.cell], inj.Core)) })
			if !reflect.DeepEqual(res, x.res) || out != x.out {
				return fmt.Errorf("replayed trial %s differs from its timed run", x.point.Name())
			}
			tr.do("dist.emit", func() { err = j.Write(trialRecord(k, x, res, out)) })
			return err
		})
		if err != nil {
			_ = j.Close()
			return err
		}
	}
	return j.Finish()
}

// trialRecord is the journal record of a replayed trial, carrying the
// fields reunion-inject journals.
func trialRecord(index int, x *op, r reunion.Result, out campaign.Outcome) sweep.Record {
	labels := x.point.LabelMap()
	labels["outcome"] = out.String()
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	return sweep.NewRecord("perfbench-replay", index, labels, map[string]float64{
		"bit": float64(x.trial.Bit), "inject_cycle": float64(x.trial.Cycle),
		"armed": b2f(r.FaultArmed), "fired": b2f(r.FaultFired), "fire_cycle": float64(r.FaultFireCycle),
		"detected": b2f(r.FaultDetected), "detect_latency_cycles": float64(r.DetectLatency),
		"detect_latency_instrs": float64(r.DetectLatencyInstr),
		"fault_retired":         float64(r.FaultRetired), "fault_squashed": float64(r.FaultSquashed),
	}, nil)
}

// ---- sweep-fig6 ---------------------------------------------------------

var (
	sweepLatencies = []int64{0, 10, 20, 40}
	sweepProfiles  = []string{"oracle-oltp", "ocean"}
)

type sweepBench struct {
	seed  uint64
	ref   *hostRef
	cells []reunion.Options
	base  []reunion.Result // non-redundant baseline per cell
}

func setupSweep(c config) (bench, error) {
	b := &sweepBench{seed: c.seed, ref: c.ref}
	baselines := map[string]reunion.Result{}
	for _, name := range sweepProfiles {
		r, err := reunion.Run(cellOptions(name, reunion.ModeNonRedundant, 10, c.workloadSeed))
		if err != nil {
			return nil, fmt.Errorf("baseline %s: %w", name, err)
		}
		baselines[name] = r
	}
	for _, lat := range sweepLatencies {
		for _, name := range sweepProfiles {
			b.cells = append(b.cells, cellOptions(name, reunion.ModeReunion, lat, c.workloadSeed))
			b.base = append(b.base, baselines[name])
		}
	}
	return b, nil
}

// order returns the op list's cells: every round runs each cell once, in
// an order drawn from the seed.
func (b *sweepBench) order(n int) []int {
	var cells []int
	for round := 0; len(cells) < n; round++ {
		perm := make([]int, len(b.cells))
		for i := range perm {
			perm[i] = i
		}
		r := sim.NewRand(mix(b.seed, uint64(round)))
		for i := len(perm) - 1; i > 0; i-- {
			j := int(r.Uint64() % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		cells = append(cells, perm...)
	}
	return cells[:n]
}

func (b *sweepBench) run(n int) ([]*op, error) {
	ops := make([]*op, n)
	for i, c := range b.order(n) {
		x := &op{kind: "cell", cell: c, rep: i / len(b.cells)}
		b.ref.maybe()
		t0 := time.Now()
		x.res, x.err = reunion.Run(b.cells[c])
		x.lat = time.Since(t0)
		if x.err == nil {
			// Figure 6 plots this ratio; redundancy never speeds a cell up.
			norm := x.res.UserIPC / b.base[c].UserIPC
			if !(norm > 0 && norm <= 1.1) {
				x.err = fmt.Errorf("cell %d: normalized IPC %.3f outside (0, 1.1]", c, norm)
			}
		}
		ops[i] = x
	}
	return ops, nil
}

// verify checks that every repetition of a cell reproduced its first run.
func (b *sweepBench) verify(ops []*op) error {
	first := map[int]reunion.Result{}
	for _, x := range ops {
		if x.err != nil {
			continue
		}
		if r, ok := first[x.cell]; ok && !reflect.DeepEqual(r, x.res) {
			return fmt.Errorf("cell %d repetition %d differs from its first run", x.cell, x.rep)
		}
		first[x.cell] = x.res
	}
	return nil
}

func (b *sweepBench) replay(tr *tracer, ops []*op) error {
	for _, x := range ops {
		err := tr.op(func() error {
			o := b.cells[x.cell]
			sys := warmParts(o, tr)
			var res reunion.Result
			tr.sim("reunion.simulate", o.MeasureCycles, func() {
				sys.ResetStats()
				sys.Run(o.MeasureCycles)
				res = reunion.Collect(sys, o.MeasureCycles)
			})
			tr.schedule(sys, o.MeasureCycles)
			if sys.Failed() || !reflect.DeepEqual(res, x.res) {
				return fmt.Errorf("replayed cell %d differs from reunion.Run", x.cell)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- ckpt-fleet ---------------------------------------------------------

var fleetCells = []string{"apache", "zeus"}

type fleetCell struct {
	o    reunion.Options
	key  uint64
	inj  fault.Injection
	src  *reunion.System // the warmed machine publishes snapshot
	ref  reunion.Result  // the trial restored from an in-memory checkpoint
	blob uint64          // identity of the first published blob
}

type fleetBench struct {
	disk  *ckptstore.Disk
	ref   *hostRef
	cells []*fleetCell
}

func setupFleet(c config) (bench, error) {
	disk, err := ckptstore.NewDisk(filepath.Join(c.dir, "store"))
	if err != nil {
		return nil, err
	}
	b := &fleetBench{disk: disk, ref: c.ref}
	for i, name := range fleetCells {
		o := trialOptions(name, c.workloadSeed)
		h := mix(c.seed, uint64(i))
		fc := &fleetCell{o: o, key: reunion.CheckpointKey(o), inj: fault.Injection{
			Core: int(h % uint64(o.CoresUnderTest())), Cycle: int64((h >> 8) % commitTarget), Bit: uint((h >> 40) % 64),
		}}
		fc.o.Inject = &fc.inj
		fc.src = warmParts(o, nil)
		// Reference: the same trial served twice by an in-memory cache;
		// the second run restores the checkpoint the first one took.
		ro := fc.o
		ro.Warm = reunion.NewWarmCache()
		first, err := reunion.Run(ro)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", name, err)
		}
		if fc.ref, err = reunion.Run(ro); err != nil {
			return nil, fmt.Errorf("reference %s: %w", name, err)
		}
		if !reflect.DeepEqual(first, fc.ref) || !fc.ref.DigestOK {
			return nil, fmt.Errorf("reference %s: restored trial differs from the warm one", name)
		}
		b.cells = append(b.cells, fc)
	}
	return b, nil
}

// blobID folds a blob's length and CRC-64 footer into one identity.
func blobID(blob []byte) uint64 {
	if len(blob) < 8 {
		return 0
	}
	return uint64(len(blob))<<40 ^ binary.LittleEndian.Uint64(blob[len(blob)-8:])
}

// fleetOp names op i of the fleet list: publish then cold start, for
// each cell in turn.
func (b *fleetBench) fleetOp(i int) *op {
	kind := "publish"
	if i%2 == 1 {
		kind = "cold"
	}
	return &op{kind: kind, cell: (i / 2) % len(b.cells), rep: i / (2 * len(b.cells))}
}

func (b *fleetBench) publish(fc *fleetCell) (uint64, error) {
	blob, err := reunion.EncodeCheckpoint(fc.src.Snapshot(), fc.key)
	if err != nil {
		return 0, err
	}
	return blobID(blob), b.disk.Put(fc.key, blob)
}

func (b *fleetBench) coldStart(fc *fleetCell) (reunion.Result, error) {
	wc := reunion.NewWarmCache()
	wc.UseStore(b.disk)
	o := fc.o
	o.Warm = wc
	res, err := reunion.Run(o)
	if err != nil {
		return res, err
	}
	// A cache that missed the store would silently warm from cycle 0.
	if wc.StoreHits() != 1 || wc.Warmups() != 0 {
		return res, fmt.Errorf("cold start %s: %d store hits, %d warmups", o.Workload.Name, wc.StoreHits(), wc.Warmups())
	}
	if !reflect.DeepEqual(res, fc.ref) {
		return res, fmt.Errorf("cold start %s: digest %x, in-memory restore %x", o.Workload.Name, res.CommitDigest, fc.ref.CommitDigest)
	}
	return res, nil
}

func (b *fleetBench) run(n int) ([]*op, error) {
	ops := make([]*op, n)
	for i := range ops {
		x := b.fleetOp(i)
		fc := b.cells[x.cell]
		b.ref.maybe()
		t0 := time.Now()
		if x.kind == "publish" {
			x.blob, x.err = b.publish(fc)
		} else {
			x.res, x.err = b.coldStart(fc)
		}
		x.lat = time.Since(t0)
		if x.kind == "publish" && x.err == nil {
			if fc.blob == 0 {
				fc.blob = x.blob
			} else if x.blob != fc.blob {
				x.err = fmt.Errorf("publish %s: blob %x differs from the first publish %x", fc.o.Workload.Name, x.blob, fc.blob)
			}
		}
		ops[i] = x
	}
	return ops, nil
}

func (b *fleetBench) verify([]*op) error { return nil }

func (b *fleetBench) replay(tr *tracer, ops []*op) error {
	for _, x := range ops {
		fc := b.cells[x.cell]
		err := tr.op(func() error {
			if x.kind == "publish" {
				var cp *reunion.Checkpoint
				var blob []byte
				var err error
				tr.do("reunion.snapshot", func() { cp = fc.src.Snapshot() })
				tr.do("reunion.encode", func() { blob, err = reunion.EncodeCheckpoint(cp, fc.key) })
				if err != nil {
					return err
				}
				tr.blobBytes = len(blob)
				tr.do("ckptstore.put", func() { err = b.disk.Put(fc.key, blob) })
				if blobID(blob) != x.blob {
					return fmt.Errorf("replayed publish %s differs from its timed run", fc.o.Workload.Name)
				}
				return err
			}
			var blob []byte
			var d *reunion.DecodedCheckpoint
			var cp *reunion.Checkpoint
			var err error
			tr.do("ckptstore.get", func() { blob, err = b.disk.Get(fc.key) })
			if err != nil {
				return err
			}
			tr.do("reunion.decode", func() { d, err = reunion.DecodeCheckpoint(blob) })
			if err != nil {
				return err
			}
			sys := buildParts(fc.o, tr)
			tr.do("reunion.bind", func() { cp, err = d.Bind(sys, fc.key) })
			if err != nil {
				return err
			}
			tr.do("reunion.restore", func() { sys.Restore(cp) })
			res, err := runTrial(sys, fc.o, &fc.inj, tr, "reunion.simulate")
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(res, x.res) {
				return fmt.Errorf("replayed cold start %s differs from its timed run", fc.o.Workload.Name)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// pinDigest folds the pinned fields of the first two repetitions of
// every cell and kind into one value, in (kind, cell, repetition) order.
// The ops it covers are in every op list of at least two rounds, whatever
// --seconds is.
func pinDigest(ops []*op) string {
	ops = append([]*op(nil), ops...)
	sort.SliceStable(ops, func(i, j int) bool {
		a, b := ops[i], ops[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.cell != b.cell {
			return a.cell < b.cell
		}
		return a.rep < b.rep
	})
	h := uint64(0xcbf29ce484222325)
	add := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 0x100000001b3
			v >>= 8
		}
	}
	n := 0
	for _, x := range ops {
		if x.rep >= 2 {
			continue
		}
		for _, c := range x.kind {
			add(uint64(c))
		}
		add(uint64(x.cell))
		add(uint64(x.rep))
		for _, f := range x.pinFields() {
			add(f)
		}
		n++
	}
	return strconv.FormatUint(h, 16) + "/" + strconv.Itoa(n)
}
