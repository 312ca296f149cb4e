package cache

import (
	"reflect"
	"testing"

	"reunion/internal/bin"
	"reunion/internal/mem"
)

// splitmix is a tiny deterministic generator for the rewind tests.
type splitmix uint64

func (r *splitmix) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// churn applies n random array operations over 96 blocks mapping onto
// the array's sets: installs, lookups, peek-and-touch, invalidates,
// downgrades, and line writes through ForEachValid (lock, unlock, data).
func churn(a *Array, r *splitmix, n int) {
	for i := 0; i < n; i++ {
		block := blk(r.next() % 96)
		switch r.next() % 8 {
		case 0, 1:
			if a.Victim(block) != nil {
				d := mem.Block{r.next()}
				a.Install(block, &d, State(1+r.next()%3))
			}
		case 2:
			if l := a.Lookup(block); l != nil {
				l.Data[1] = r.next()
				l.Dirty = true
			}
		case 3:
			if l := a.Peek(block); l != nil {
				a.Touch(l)
			}
		case 4:
			a.Invalidate(block)
		case 5:
			a.Downgrade(block)
		case 6:
			if l := a.Peek(block); l != nil && r.next()%2 == 0 {
				l.Locked = true
			}
		default:
			salt := r.next()
			a.ForEachValid(func(l *Line) {
				l.Locked = false
				if salt%5 == 0 {
					l.Data[2] ^= salt
				}
			})
		}
	}
}

// TestArrayRestoreFastMatchesFull is the cache half of the rewind
// oracle: after random mutations, restoring the baseline through the
// touched-set path must give exactly the array a full restore of the
// same snapshot gives a fresh array — also when the baseline alternates
// between two snapshots and when the snapshot came off the wire.
func TestArrayRestoreFastMatchesFull(t *testing.T) {
	r := splitmix(3)
	a := NewArray(16*4*mem.BlockBytes, 4) // 16 sets, 4 ways
	churn(a, &r, 400)
	s1 := a.Snapshot()
	churn(a, &r, 400)
	s2 := a.Snapshot()
	s3 := roundTripArray(t, s1)
	states := []*ArrayState{&s1, &s2, &s3}
	for round := 0; round < 80; round++ {
		s := states[r.next()%3]
		a.Restore(s) // full path unless s is already the baseline
		churn(a, &r, int(r.next()%40))
		a.Restore(s) // fast path
		ref := NewArray(16*4*mem.BlockBytes, 4)
		ref.Restore(s)
		if !reflect.DeepEqual(a.sets, ref.sets) || a.tick != ref.tick {
			t.Fatalf("round %d: touched-set restore differs from a full restore", round)
		}
		for w, word := range a.touched {
			if word != 0 {
				t.Fatalf("round %d: restore left touched word %d = %#x", round, w, word)
			}
		}
	}
}

// TestArrayRestoreFastPathAllocs pins the touched-set rewind at zero
// allocations.
func TestArrayRestoreFastPathAllocs(t *testing.T) {
	r := splitmix(4)
	a := NewArray(16*4*mem.BlockBytes, 4)
	churn(a, &r, 400)
	s := a.Snapshot()
	allocs := testing.AllocsPerRun(100, func() {
		churn(a, &r, 20)
		a.Restore(&s)
	})
	if allocs != 0 {
		t.Fatalf("fast-path array rewind allocates %v per run, want 0", allocs)
	}
}

// TestArraySnapshotExactSize pins Snapshot's single allocation per slice:
// capacity equals the valid-line count.
func TestArraySnapshotExactSize(t *testing.T) {
	r := splitmix(5)
	a := NewArray(16*4*mem.BlockBytes, 4)
	churn(a, &r, 400)
	valid := 0
	a.ForEachValid(func(*Line) { valid++ })
	s := a.Snapshot()
	if len(s.idx) != valid || cap(s.idx) != valid || cap(s.lines) != valid {
		t.Fatalf("snapshot of %d valid lines: idx len %d cap %d, lines cap %d",
			valid, len(s.idx), cap(s.idx), cap(s.lines))
	}
}

// roundTripArray encodes and decodes s: the decoded state carries no
// generation until its first Restore.
func roundTripArray(t *testing.T, s ArrayState) ArrayState {
	t.Helper()
	var w bin.Writer
	s.Encode(&w)
	d := DecodeArrayState(bin.NewReader(w.Bytes()))
	if d.gen != 0 || len(d.idx) != len(s.idx) {
		t.Fatalf("decode: %d lines, gen %d", len(d.idx), d.gen)
	}
	return d
}
