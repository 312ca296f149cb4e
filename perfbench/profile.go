package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The tick-layer split comes from a CPU profile of the traced replay.
// runtime/pprof writes the gzipped protobuf profile format; the decoder
// below reads only the fields the attribution needs (samples with their
// values, stacks and labels; locations; functions; the string table).

// tickLayers are the packages a sample can be charged to, in report
// order. "system" is the root reunion package; "other" is any other
// package of the module; "runtime" is a sample with no module frame.
var tickLayers = []string{"cpu", "core", "fingerprint", "sim", "coherence", "cache", "mem", "tlb", "bpred", "system", "other", "runtime"}

const modulePath = "reunion"

type pbSample struct {
	locs   []uint64
	values []int64
	labels map[string]string
}

type pbProfile struct {
	samples []pbSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
}

// pbReader walks one protobuf message.
type pbReader struct {
	b   []byte
	err error
}

func (r *pbReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = errors.New("varint overflow")
	return 0
}

// next returns the next field: its number, wire type, varint value (wire
// type 0) or payload (wire type 2). It returns false at the end.
func (r *pbReader) next() (field int, wire int, v uint64, data []byte, ok bool) {
	if len(r.b) == 0 || r.err != nil {
		return 0, 0, 0, nil, false
	}
	key := r.varint()
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v = r.varint()
	case 1:
		if len(r.b) < 8 {
			r.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		r.b = r.b[8:]
	case 2:
		n := r.varint()
		if uint64(len(r.b)) < n {
			r.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		data, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			r.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		r.b = r.b[4:]
	default:
		r.err = fmt.Errorf("unsupported wire type %d", wire)
		return 0, 0, 0, nil, false
	}
	return field, wire, v, data, r.err == nil
}

// varints decodes a repeated integer field, packed or not.
func varints(wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return []uint64{v}
	}
	r := pbReader{b: data}
	var out []uint64
	for len(r.b) > 0 && r.err == nil {
		out = append(out, r.varint())
	}
	return out
}

func parseProfile(gz []byte) (*pbProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &pbProfile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	type rawLabel struct{ key, str int64 }
	var rawLabels [][]rawLabel
	r := pbReader{b: raw}
	for {
		f, _, _, data, ok := r.next()
		if !ok {
			break
		}
		switch f {
		case 2: // sample
			var s pbSample
			var labels []rawLabel
			sr := pbReader{b: data}
			for {
				sf, sw, sv, sd, ok := sr.next()
				if !ok {
					break
				}
				switch sf {
				case 1:
					s.locs = append(s.locs, varints(sw, sv, sd)...)
				case 2:
					for _, x := range varints(sw, sv, sd) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var l rawLabel
					lr := pbReader{b: sd}
					for {
						lf, _, lv, _, ok := lr.next()
						if !ok {
							break
						}
						switch lf {
						case 1:
							l.key = int64(lv)
						case 2:
							l.str = int64(lv)
						}
					}
					labels = append(labels, l)
				}
			}
			p.samples = append(p.samples, s)
			rawLabels = append(rawLabels, labels)
		case 4: // location
			var id uint64
			var fns []uint64
			lr := pbReader{b: data}
			for {
				lf, _, lv, ld, ok := lr.next()
				if !ok {
					break
				}
				switch lf {
				case 1:
					id = lv
				case 4: // line
					ln := pbReader{b: ld}
					for {
						nf, _, nv, _, ok := ln.next()
						if !ok {
							break
						}
						if nf == 1 {
							fns = append(fns, nv)
						}
					}
				}
			}
			p.locs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			fr := pbReader{b: data}
			for {
				ff, _, fv, _, ok := fr.next()
				if !ok {
					break
				}
				switch ff {
				case 1:
					id = fv
				case 2:
					name = int64(fv)
				}
			}
			p.funcs[id] = name
		case 6: // string table
			p.strs = append(p.strs, string(data))
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("profile: %w", r.err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(p.strs) {
			return ""
		}
		return p.strs[i]
	}
	for i, ls := range rawLabels {
		if len(ls) == 0 {
			continue
		}
		p.samples[i].labels = map[string]string{}
		for _, l := range ls {
			p.samples[i].labels[str(l.key)] = str(l.str)
		}
	}
	return p, nil
}

// funcName returns the function name of a function id.
func (p *pbProfile) funcName(id uint64) string {
	i := p.funcs[id]
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// layerOf maps a function name to its tick layer, or "" when the
// function lies outside the module (or in the benchmark itself).
func layerOf(fn string) string {
	pkg := fn
	if slash := strings.LastIndexByte(pkg, '/'); slash >= 0 {
		if dot := strings.IndexByte(pkg[slash:], '.'); dot >= 0 {
			pkg = pkg[:slash+dot]
		}
	} else if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
		pkg = pkg[:dot]
	}
	switch {
	case pkg == modulePath:
		return "system"
	case strings.HasPrefix(pkg, modulePath+"/perfbench"):
		return ""
	case strings.HasPrefix(pkg, modulePath+"/"):
		last := pkg[strings.LastIndexByte(pkg, '/')+1:]
		for _, l := range tickLayers {
			if l == last {
				return l
			}
		}
		return "other"
	}
	return ""
}

// layerNanos charges the CPU time of every sample whose "phase" label is
// in phases to the innermost frame that lies inside the module, so a
// runtime helper such as memmove lands on its caller. A sample with no
// module frame is charged to "runtime".
func (p *pbProfile) layerNanos(phases map[string]bool) map[string]int64 {
	out := map[string]int64{}
	for _, s := range p.samples {
		if !phases[s.labels["phase"]] || len(s.values) < 2 {
			continue
		}
		layer := "runtime"
	stack:
		for _, loc := range s.locs { // leaf first
			for _, fid := range p.locs[loc] { // innermost inlined frame first
				if l := layerOf(p.funcName(fid)); l != "" {
					layer = l
					break stack
				}
			}
		}
		out[layer] += s.values[1] // cpu nanoseconds
	}
	return out
}
