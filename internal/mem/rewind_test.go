package mem

import (
	"reflect"
	"testing"

	"reunion/internal/bin"
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

// scribble applies n random word writes, block writes and reads over a
// 48-page window, so it both rewrites mapped pages and maps new ones.
func scribble(m *Memory, r *splitmix, n int) {
	for i := 0; i < n; i++ {
		addr := r.next() % (48 * PageBytes) &^ 7
		switch r.next() % 4 {
		case 0:
			m.WriteWord(addr, r.next())
		case 1:
			var b Block
			for j := range b {
				b[j] = r.next()
			}
			m.WriteBlock(addr, &b)
		case 2:
			_ = m.ReadWord(addr)
		default:
			var b Block
			m.ReadBlock(addr, &b)
		}
	}
}

// sameImage fails unless m and ref map the same pages with the same
// contents, and every word of the window reads the same through both
// (which also catches a last-page cache left pointing at a stale page).
func sameImage(t *testing.T, label string, m, ref *Memory) {
	t.Helper()
	if !reflect.DeepEqual(m.pages, ref.pages) {
		t.Fatalf("%s: fast restore maps %d pages, full restore %d, or contents differ",
			label, len(m.pages), len(ref.pages))
	}
	for addr := uint64(0); addr < 48*PageBytes; addr += 8 {
		if got, want := m.ReadWord(addr), ref.ReadWord(addr); got != want {
			t.Fatalf("%s: word %#x reads %#x, full restore %#x", label, addr, got, want)
		}
	}
}

// TestRestoreFastMatchesFull is the memory half of the rewind oracle:
// after random writes and new mappings, restoring the baseline through
// the dirty-page path must give the image a full restore of the same
// snapshot gives a fresh Memory — also when the baseline alternates
// between two snapshots and when the snapshot came off the wire.
func TestRestoreFastMatchesFull(t *testing.T) {
	r := splitmix(1)
	m := New()
	scribble(m, &r, 300)
	a := m.Snapshot()
	scribble(m, &r, 300)
	b := m.Snapshot()
	c := roundTrip(t, a)
	states := []*MemoryState{a, b, c}
	for round := 0; round < 60; round++ {
		s := states[r.next()%3]
		m.Restore(s) // full path unless s is already the baseline
		scribble(m, &r, int(r.next()%200))
		m.Restore(s) // fast path
		ref := New()
		ref.Restore(s)
		sameImage(t, "round", m, ref)
		if len(m.dirty) != 0 || m.base != s.gen {
			t.Fatalf("round %d: restore left %d dirty pages, base %d want %d", round, len(m.dirty), m.base, s.gen)
		}
	}
}

// TestRestoreFastPathAllocs pins the rewind at zero allocations once the
// baseline is set: rewriting mapped pages and restoring allocate nothing.
func TestRestoreFastPathAllocs(t *testing.T) {
	r := splitmix(2)
	m := New()
	scribble(m, &r, 300)
	s := m.Snapshot()
	m.WriteWord(200*PageBytes, 1) // a page the snapshot does not map
	var b Block
	allocs := testing.AllocsPerRun(100, func() {
		m.WriteWord(5*PageBytes+64, 1)
		m.WriteBlock(9*PageBytes, &b)
		m.Restore(s)
	})
	if allocs != 0 {
		t.Fatalf("fast-path rewind allocates %v per run, want 0", allocs)
	}
	if m.MappedPages() != len(s.pages) {
		t.Fatalf("rewind left %d pages mapped, snapshot has %d", m.MappedPages(), len(s.pages))
	}
}

// roundTrip encodes and decodes s: the decoded state carries no
// generation until its first Restore.
func roundTrip(t *testing.T, s *MemoryState) *MemoryState {
	t.Helper()
	var w bin.Writer
	s.Encode(&w)
	d := DecodeMemoryState(bin.NewReader(w.Bytes()))
	if d == nil || d.gen != 0 {
		t.Fatalf("decode: %v", d)
	}
	return d
}
