// Package cache implements the set-associative cache structures of the
// simulated CMP: a generic LRU array used by both L1s and the shared L2,
// and the private write-back L1 controller with MSHRs that cores issue
// loads, stores and instruction fetches through.
//
// Lines carry real data. This matters: Reunion's input incoherence is a
// value phenomenon — a mute core holding a stale copy of a block while its
// vocal partner refetches a fresh one — so the caches must be functional,
// not just timing structures.
package cache

import (
	"math/bits"
	"sync/atomic"

	"reunion/internal/mem"
)

// State is a line's coherence state (MESI-style; the directory in the L2
// tracks sharers and owners among vocal L1s).
type State uint8

// Line coherence states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns a one-letter state name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Line is one cache line: tag (full block address), state, and data.
// Locked marks a line held by an in-flight atomic (CAS) between execute
// and retirement; locked lines are never victimized and coherence probes
// against them are deferred.
type Line struct {
	Block  uint64 // block-aligned address; valid only when State != Invalid
	State  State
	Dirty  bool
	Locked bool
	Data   mem.Block
	lru    int64
}

// Array is a set-associative cache array with true-LRU replacement.
type Array struct {
	sets    [][]Line
	setMask uint64
	ways    int
	tick    int64

	// Rewind tracking. base is the generation of the ArrayState the
	// array last equalled (0: none); touched has one bit per set that
	// may have changed since then, so restoring that same state rewrites
	// only those sets. Every *Line a caller can mutate comes from set or
	// ForEachValid, which mark the set it lies in; no caller keeps a
	// *Line across cycles.
	base    uint64   //reunion:derived
	touched []uint64 //reunion:derived
}

// NewArray builds an array with the given total capacity in bytes and
// associativity. Capacity must be a power-of-two multiple of
// ways*mem.BlockBytes.
func NewArray(capacityBytes, ways int) *Array {
	numLines := capacityBytes / mem.BlockBytes
	numSets := numLines / ways
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic("cache: capacity/ways must give a power-of-two set count")
	}
	sets := make([][]Line, numSets)
	backing := make([]Line, numLines)
	for i := range sets {
		sets[i], backing = backing[:ways:ways], backing[ways:]
	}
	return &Array{
		sets: sets, setMask: uint64(numSets - 1), ways: ways,
		touched: make([]uint64, (numSets+63)/64),
	}
}

// Sets returns the number of sets.
func (a *Array) Sets() int { return len(a.sets) }

// Ways returns the associativity.
func (a *Array) Ways() int { return a.ways }

// set returns block's set and marks it touched: every line access goes
// through here, so this is the one place rewind tracking must see.
func (a *Array) set(block uint64) []Line {
	si := (block >> mem.BlockShift) & a.setMask
	a.touched[si/64] |= 1 << (si % 64)
	return a.sets[si]
}

// Lookup returns the line holding block, touching LRU, or nil on miss.
func (a *Array) Lookup(block uint64) *Line {
	set := a.set(block)
	for i := range set {
		if set[i].State != Invalid && set[i].Block == block {
			a.tick++
			set[i].lru = a.tick
			return &set[i]
		}
	}
	return nil
}

// Touch refreshes a line's LRU stamp exactly as a Lookup hit would. Hit
// fast paths locate the line with Peek and call this on success, so a
// failed fast path followed by the full Lookup bumps the LRU clock once,
// same as the full path alone.
func (a *Array) Touch(l *Line) {
	a.tick++
	l.lru = a.tick
}

// Peek returns the line holding block without touching LRU, or nil.
func (a *Array) Peek(block uint64) *Line {
	set := a.set(block)
	for i := range set {
		if set[i].State != Invalid && set[i].Block == block {
			return &set[i]
		}
	}
	return nil
}

// Victim selects the replacement victim for block: an invalid way if one
// exists, else the least recently used unlocked line. It returns nil if
// every way is locked (callers retry later; at most one line per core is
// ever locked, so this can only happen transiently in degenerate configs).
func (a *Array) Victim(block uint64) *Line {
	set := a.set(block)
	var victim *Line
	for i := range set {
		l := &set[i]
		if l.State == Invalid {
			return l
		}
		if l.Locked {
			continue
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	return victim
}

// Install places block into the array, evicting if needed. It returns the
// installed line and, when a valid line was displaced, a copy of the
// victim for writeback handling. Install panics if no victim is available.
func (a *Array) Install(block uint64, data *mem.Block, state State) (line *Line, victim Line, evicted bool) {
	if l := a.Lookup(block); l != nil {
		// Refill of a present line: update data/state in place.
		l.Data = *data
		l.State = state
		return l, Line{}, false
	}
	v := a.Victim(block)
	if v == nil {
		panic("cache: all ways locked")
	}
	if v.State != Invalid {
		victim = *v
		evicted = true
	}
	a.tick++
	*v = Line{Block: block, State: state, Data: *data, lru: a.tick}
	return v, victim, evicted
}

// Invalidate drops the line for block if present, returning its prior
// contents for recall handling. ok is false if the block was absent and
// busy is true (with ok false) if the line is locked by an atomic.
func (a *Array) Invalidate(block uint64) (prior Line, ok, busy bool) {
	l := a.Peek(block)
	if l == nil {
		return Line{}, false, false
	}
	if l.Locked {
		return Line{}, false, true
	}
	prior = *l
	l.State = Invalid
	l.Dirty = false
	return prior, true, false
}

// Downgrade moves an E/M line to Shared, returning its data (for
// writeback when it was dirty). Same busy semantics as Invalidate.
func (a *Array) Downgrade(block uint64) (prior Line, ok, busy bool) {
	l := a.Peek(block)
	if l == nil {
		return Line{}, false, false
	}
	if l.Locked {
		return Line{}, false, true
	}
	prior = *l
	l.State = Shared
	l.Dirty = false
	return prior, true, false
}

// ForEachValid calls fn for every valid line (stats, warmup checks). fn
// may mutate the line, so each set it visits is marked touched.
func (a *Array) ForEachValid(fn func(*Line)) {
	for s := range a.sets {
		for w := range a.sets[s] {
			if a.sets[s][w].State != Invalid {
				a.touched[s/64] |= 1 << (s % 64)
				fn(&a.sets[s][w])
			}
		}
	}
}

// ArrayState is a checkpoint of the array: the LRU clock and a sparse
// copy of the valid lines (flat index = set*ways + way, ascending).
// Invalid lines carry no state the replacement policy or lookups can
// observe, so only valid lines are stored — which keeps a checkpoint of a
// mostly-empty shared cache small.
type ArrayState struct {
	tick  int64
	idx   []int32
	lines []Line
	// gen identifies this state for Restore's baseline check: a
	// process-wide counter value, not a pointer, so an array never keeps
	// a discarded checkpoint reachable. A decoded state has none until
	// its first Restore stamps one.
	gen uint64 //reunion:derived
}

// gens issues the generations stamped into ArrayStates; 0 is never
// issued, so it means "none".
var gens atomic.Uint64

// Snapshot captures the array contents. The contents are unchanged, but
// the snapshot becomes the array's rewind baseline (see Restore).
func (a *Array) Snapshot() ArrayState {
	n := 0
	for si := range a.sets {
		for wi := range a.sets[si] {
			if a.sets[si][wi].State != Invalid {
				n++
			}
		}
	}
	s := ArrayState{tick: a.tick, gen: gens.Add(1)}
	if n > 0 {
		s.idx = make([]int32, 0, n)
		s.lines = make([]Line, 0, n)
	}
	flat := int32(0)
	for si := range a.sets {
		for wi := range a.sets[si] {
			if l := &a.sets[si][wi]; l.State != Invalid {
				s.idx = append(s.idx, flat)
				s.lines = append(s.lines, *l)
			}
			flat++
		}
	}
	clear(a.touched)
	a.base = s.gen
	return s
}

// Restore rewrites the array from a snapshot: every line is invalidated,
// then the snapshotted valid lines are written back into their exact
// ways. The backing storage is reused, so *Line pointers taken before the
// snapshot keep pointing at the restored lines.
//
// Restoring the array's baseline — the state it last equalled through
// Snapshot or Restore — rewrites only the sets touched since then and
// allocates nothing. Any other state rewrites every set and becomes the
// new baseline.
func (a *Array) Restore(s *ArrayState) {
	a.tick = s.tick
	if s.gen == 0 {
		s.gen = gens.Add(1)
	}
	if s.gen != a.base {
		for si := range a.sets {
			clear(a.sets[si])
		}
		for i, flat := range s.idx {
			a.sets[int(flat)/a.ways][int(flat)%a.ways] = s.lines[i]
		}
		clear(a.touched)
		a.base = s.gen
		return
	}
	for wi, word := range a.touched {
		for ; word != 0; word &= word - 1 {
			si := wi*64 + bits.TrailingZeros64(word)
			a.restoreSet(s, si)
		}
		a.touched[wi] = 0
	}
}

// restoreSet rewrites set si from s: its ways are cleared, then the
// snapshotted lines of the set (a contiguous run of s.idx) are copied in.
func (a *Array) restoreSet(s *ArrayState, si int) {
	set := a.sets[si]
	clear(set)
	lo := int32(si * a.ways)
	// First position in s.idx at or past the set's first way.
	i, j := 0, len(s.idx)
	for i < j {
		h := int(uint(i+j) >> 1)
		if s.idx[h] < lo {
			i = h + 1
		} else {
			j = h
		}
	}
	for ; i < len(s.idx) && s.idx[i] < lo+int32(a.ways); i++ {
		set[s.idx[i]-lo] = s.lines[i]
	}
}
