package reunion

import (
	"bytes"
	"fmt"
	"testing"

	"reunion/internal/sim"
	"reunion/internal/workload"
)

// The rewind oracle: a Restore that takes the O(touched) fast path (only
// the memory pages and cache sets changed since the baseline are copied
// back) must leave exactly the machine a full restore does. The live
// state is compared through the wire encoding, byte for byte, so any
// page or set the tracking missed shows up even when the next trial
// would never read it — the blind spot of comparing trial results.

// TestRewindOracle alternates two in-memory checkpoints and one decoded
// and bound checkpoint, running a divergent trial between restores, and
// checks after every restore that a fresh snapshot of the live machine
// encodes to the same bytes as the checkpoint.
func TestRewindOracle(t *testing.T) {
	for _, cell := range []struct {
		topo Topology
		mode Mode
	}{
		{TopologyDirectory, ModeReunion},
		{TopologySnoopy, ModeNonRedundant},
	} {
		t.Run(fmt.Sprintf("%v/%v", cell.topo, cell.mode), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Topology = cell.topo
			o := Options{
				Mode:       cell.mode,
				Workload:   workload.Apache(),
				Seed:       29,
				WarmCycles: 4_000,
				Config:     &cfg,
			}.withDefaults()
			key := CheckpointKey(o)
			sys := warmSystem(o)

			encode := func(cp *Checkpoint) []byte {
				t.Helper()
				blob, err := EncodeCheckpoint(cp, key)
				if err != nil {
					t.Fatal(err)
				}
				return blob
			}
			a := sys.Snapshot()
			sys.Run(1_500)
			b := sys.Snapshot()
			sys.Run(1_500)
			decoded, err := DecodeCheckpoint(encode(sys.Snapshot()))
			if err != nil {
				t.Fatal(err)
			}
			d, err := decoded.Bind(sys, key)
			if err != nil {
				t.Fatal(err)
			}
			cps := map[string]*Checkpoint{"A": a, "B": b, "D": d}
			want := map[string][]byte{"A": encode(a), "B": encode(b), "D": encode(d)}

			// trial diverges the live machine: simulated cycles with a
			// fault armed, plus direct memory writes to mapped and unmapped
			// pages, since a short trial rarely writes memory past the L2.
			// The writes alternate between the low 64 MB (unmapped: the
			// rewind must unmap them) and the first thread's private data
			// (mapped), and every trial ends them on one fixed mapped page.
			rng := sim.NewRand(31)
			const fixed = workload.PrivateBase + 0x2000
			trial := func(n int) {
				sys.Cores[n%len(sys.Cores)].ArmFault(uint(n))
				sys.Run(int64(700 + 300*n))
				for i := uint64(0); i < 8; i++ {
					addr := (rng.Uint64() % (64 << 20)) &^ 7
					if i%2 == 1 {
						addr = workload.PrivateBase + addr%(1<<20)
					}
					sys.Mem.WriteWord(addr, rng.Uint64())
				}
				sys.Mem.WriteWord(fixed, rng.Uint64())
			}
			check := func(step int, name string) {
				t.Helper()
				if got := encode(sys.Snapshot()); !bytes.Equal(got, want[name]) {
					t.Fatalf("step %d: live state after Restore(%s) differs from the checkpoint (%d vs %d bytes)",
						step, name, len(got), len(want[name]))
				}
			}
			// Each step restores twice around a trial: the first Restore
			// switches baseline (full path, since the previous check's
			// Snapshot moved it), the second rewinds the trial (fast path).
			// A lone write to the trial's last-written page and a third
			// Restore follow: a last-written-page cache that survived the
			// second Restore would leave that write unmarked. Steps without
			// a check run a second trial instead, so the next step's full
			// path also starts from a diverged machine.
			for step, s := range []struct {
				name  string
				check bool
			}{
				{"A", true}, {"B", true}, {"A", false}, {"D", true}, {"D", true},
				{"B", false}, {"A", true}, {"D", false}, {"B", true},
			} {
				sys.Restore(cps[s.name])
				trial(step)
				sys.Restore(cps[s.name])
				sys.Mem.WriteWord(fixed+8, rng.Uint64())
				sys.Restore(cps[s.name])
				if s.check {
					check(step, s.name)
				} else {
					trial(step + 1)
				}
			}
		})
	}
}
