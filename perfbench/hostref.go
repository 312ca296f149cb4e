package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The host reference is a fixed kernel, independent of the program,
// that the timed runs sample between ops to read how fast the host is
// at that moment. The shared VM host slows memory-bound work by up to
// ~40% for tens of seconds at a time while ALU-bound work keeps its
// speed; the simulator is memory-latency-bound, and in a 300-second
// probe its cell latency rose and fell with the reference's time.
// Scaling the measured seconds by the reference's speed
// removes most of that drift from the time metrics, and a change to the
// program cannot move the reference.
const (
	refWords    = 8 << 20 // 64 MB buffer, far beyond the last-level cache
	refAccesses = 500_000 // dependent loads and stores per sample, ≈10 ms
	refChunks   = 10      // a sample is timed in this many equal chunks
	refNominal  = 10.0    // ms per sample on the nominal host
	refEvery    = 200 * time.Millisecond
)

// hostRef times the reference kernel. Its buffer is mapped outside the
// Go heap, so it adds nothing to heap_live_mb, allocation or GC work.
// A nil *hostRef samples nothing.
type hostRef struct {
	mem     []byte
	buf     []uint64
	last    time.Time
	spent   time.Duration // total time spent sampling
	samples []float64     // ms per sample
	sink    uint64
}

func newHostRef() (*hostRef, error) {
	mem, err := syscall.Mmap(-1, 0, refWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, err
	}
	h := &hostRef{mem: mem, buf: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refWords)}
	for i := range h.buf { // fault every page in before the first sample
		h.buf[i] = uint64(i)
	}
	return h, nil
}

// close unmaps the buffer.
func (h *hostRef) close() {
	if h != nil {
		_ = syscall.Munmap(h.mem)
		h.mem, h.buf = nil, nil
	}
}

// sample runs the kernel once and records its time: a chain of loads
// and stores at pseudo-random words, each address independent of the
// data so the sequence is the same on every host. The recorded time is
// the median chunk's times refChunks: a garbage collection still marking
// from the last op, or the scheduler, can take the CPU for part of a
// sample, and the median chunk leaves that part out.
func (h *hostRef) sample() {
	if h == nil {
		return
	}
	t0 := time.Now()
	x, s := uint64(0x9e3779b97f4a7c15), uint64(0)
	var chunks [refChunks]float64
	for c := range chunks {
		c0 := time.Now()
		for i := 0; i < refAccesses/refChunks; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := x & (refWords - 1)
			s += h.buf[j]
			h.buf[j] = s
		}
		chunks[c] = ms(time.Since(c0))
	}
	h.sink += s
	h.last = time.Now()
	h.spent += h.last.Sub(t0)
	h.samples = append(h.samples, median(chunks[:])*refChunks)
}

// maybe samples if refEvery has passed since the last sample, so short
// ops share one sample and long ones get one each.
func (h *hostRef) maybe() {
	if h != nil && time.Since(h.last) >= refEvery {
		h.sample()
	}
}

// mark returns the number of samples and the sampling time so far, for
// reading one stretch of the run with since.
func (h *hostRef) mark() (int, time.Duration) {
	if h == nil {
		return 0, 0
	}
	return len(h.samples), h.spent
}

// since returns the median sample time after mark n (NaN without
// samples).
func (h *hostRef) since(n int) float64 {
	if h == nil {
		return refNominal
	}
	return median(h.samples[n:])
}
