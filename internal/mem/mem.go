// Package mem provides the flat physical memory image backing the
// simulated CMP, with word and cache-block granularity access.
//
// The simulator executes real values: registers, memory and branches are
// all functional, so input incoherence in the Reunion model arises from
// genuine data races rather than an injected random process. This package
// is the root of that value chain — cache lines are filled from here and
// dirty lines written back here.
//
// Memory is sparse (page-allocated) so 3 GB address spaces from Table 1
// cost only what workloads actually touch. Reads of unmapped memory return
// zero without allocating, which keeps speculative wrong-path wild loads
// cheap and harmless.
package mem

import "sync/atomic"

// Geometry constants shared across the cache hierarchy.
const (
	BlockBytes = 64             // cache line size (Table 1)
	BlockWords = BlockBytes / 8 // 64-bit words per line
	BlockShift = 6              // log2(BlockBytes)
	PageBytes  = 8192           // 8 KB pages (Table 1)
	PageShift  = 13             // log2(PageBytes)
	pageWords  = PageBytes / 8  // words per page
)

// BlockAddr returns the block-aligned address containing addr.
func BlockAddr(addr uint64) uint64 { return addr &^ (BlockBytes - 1) }

// PageOf returns the page number containing addr.
func PageOf(addr uint64) uint64 { return addr >> PageShift }

// Block is one cache line of data.
type Block [BlockWords]uint64

// Memory is a sparse physical memory image.
type Memory struct {
	pages map[uint64]*[pageWords]uint64
	// Last-page cache: accesses run in page-length bursts (sequential
	// fetch, block fills), so remembering the last hit skips the map
	// lookup for the whole run. lastP is nil when nothing is cached;
	// Restore invalidates it when it unmaps pages.
	lastPN uint64
	lastP  *[pageWords]uint64

	// Rewind tracking. base is the generation of the MemoryState the
	// image last equalled (0: none), and dirty holds every page written
	// or mapped since then, so restoring that same state copies back only
	// those pages. The last-written-page cache (wPN, wP) is a page already
	// in dirty — wPN is noPage when there is none — so a run of writes to
	// one page marks it once. It is separate from the last-page cache
	// because a read may have cached a clean page. Every write into a
	// page must go through writable, which keeps the marks.
	base  uint64              //reunion:derived
	dirty map[uint64]struct{} //reunion:derived
	wPN   uint64              //reunion:derived
	wP    *[pageWords]uint64  //reunion:derived
}

// noPage is a page number no address maps to.
const noPage = ^uint64(0)

// New returns an empty memory image.
func New() *Memory {
	return &Memory{
		pages: make(map[uint64]*[pageWords]uint64),
		dirty: make(map[uint64]struct{}),
		wPN:   noPage,
	}
}

// page returns the page holding addr for a read, or nil when unmapped.
func (m *Memory) page(addr uint64) *[pageWords]uint64 {
	pn := addr >> PageShift
	if m.lastP != nil && m.lastPN == pn {
		return m.lastP
	}
	p := m.pages[pn]
	if p != nil {
		// Do not cache a miss: a later write may map the page.
		m.lastPN, m.lastP = pn, p
	}
	return p
}

// writable returns the page holding addr for a write, mapping it if
// needed, and marks it written since the baseline. It stays small enough
// to inline: a write to the last-written page costs one compare.
func (m *Memory) writable(addr uint64) *[pageWords]uint64 {
	if pn := addr >> PageShift; m.wPN != pn {
		p := m.pages[pn]
		if p == nil {
			p = new([pageWords]uint64)
			m.pages[pn] = p
		}
		m.dirty[pn] = struct{}{}
		m.wPN, m.wP = pn, p
	}
	return m.wP
}

// ReadWord returns the 64-bit word at the 8-byte-aligned address.
// Unmapped memory reads as zero.
func (m *Memory) ReadWord(addr uint64) uint64 {
	p := m.page(addr)
	if p == nil {
		return 0
	}
	return p[(addr%PageBytes)/8]
}

// WriteWord stores a 64-bit word at the 8-byte-aligned address.
func (m *Memory) WriteWord(addr uint64, v uint64) {
	p := m.writable(addr)
	p[(addr%PageBytes)/8] = v
}

// ReadBlock copies the cache block containing addr into b.
func (m *Memory) ReadBlock(addr uint64, b *Block) {
	base := BlockAddr(addr)
	p := m.page(base)
	if p == nil {
		*b = Block{}
		return
	}
	off := (base % PageBytes) / 8
	copy(b[:], p[off:off+BlockWords])
}

// WriteBlock stores the cache block containing addr from b.
func (m *Memory) WriteBlock(addr uint64, b *Block) {
	base := BlockAddr(addr)
	p := m.writable(base)
	off := (base % PageBytes) / 8
	copy(p[off:off+BlockWords], b[:])
}

// MappedPages returns the number of allocated pages (for footprint stats).
func (m *Memory) MappedPages() int { return len(m.pages) }

// MemoryState is a checkpoint of the memory image: a deep copy of every
// mapped page.
type MemoryState struct {
	pages map[uint64][pageWords]uint64
	// gen identifies this state for Restore's baseline check. It is a
	// process-wide counter value, not a pointer, so a Memory that once
	// equalled a checkpoint does not keep the checkpoint reachable. A
	// decoded state has none until its first Restore stamps one.
	gen uint64 //reunion:derived
}

// gens issues the generations stamped into MemoryStates; 0 is never
// issued, so it means "none".
var gens atomic.Uint64

// Snapshot deep-copies the memory image. The image is unchanged, but the
// snapshot becomes its rewind baseline (see Restore).
func (m *Memory) Snapshot() *MemoryState {
	s := &MemoryState{pages: make(map[uint64][pageWords]uint64, len(m.pages)), gen: gens.Add(1)}
	for pn, p := range m.pages {
		s.pages[pn] = *p
	}
	m.clean(s.gen)
	return s
}

// clean records that the image now equals the state stamped gen.
func (m *Memory) clean(gen uint64) {
	clear(m.dirty)
	m.wPN, m.wP = noPage, nil
	m.base = gen
}

// Restore rewrites the memory image from a snapshot: pages mapped since
// the snapshot are unmapped, and every snapshotted page gets its saved
// contents back. The snapshot is copied out, so it restores any number of
// times.
//
// Restoring the image's baseline — the state it last equalled through
// Snapshot or Restore — copies back only the pages marked dirty since
// then, into their existing storage, and allocates nothing. Any other
// state takes the full path, which rewrites every page, and becomes the
// new baseline.
func (m *Memory) Restore(s *MemoryState) {
	if s.gen == 0 {
		s.gen = gens.Add(1)
	}
	if s.gen != m.base {
		m.restoreAll(s)
		return
	}
	for pn := range m.dirty {
		if _, ok := s.pages[pn]; ok {
			*m.pages[pn] = s.pages[pn]
		} else {
			delete(m.pages, pn) // mapped since the baseline
			m.lastP = nil
		}
	}
	m.clean(s.gen)
}

// restoreAll rewrites every page from s, reusing the storage of pages s
// also maps.
func (m *Memory) restoreAll(s *MemoryState) {
	for pn := range m.pages {
		if _, ok := s.pages[pn]; !ok {
			delete(m.pages, pn)
		}
	}
	for pn := range s.pages {
		p := m.pages[pn]
		if p == nil {
			p = new([pageWords]uint64)
			m.pages[pn] = p
		}
		*p = s.pages[pn]
	}
	m.lastP = nil
	m.clean(s.gen)
}
