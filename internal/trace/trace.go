// Package trace defines how dynamic instruction streams reach the
// simulator: the Source interface produced by the synthetic workload
// generator (or by trace files), the scenario trace formats (see
// scenario.go), and the basic-block dictionary used to synthesise
// plausible wrong-path instructions after branch mispredictions — the
// SMTsim technique the paper's methodology section describes.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"

	"repro/internal/isa"
)

// Source produces the correct-path dynamic instruction stream of one
// thread. Implementations must be deterministic. Streams are unbounded:
// finite traces loop.
type Source interface {
	// Next fills out with the next dynamic instruction.
	Next(out *isa.Inst)
}

// SliceSource replays a finite instruction slice, looping at the end.
type SliceSource struct {
	insts []isa.Inst
	pos   int
}

// NewSliceSource wraps the given instructions. It panics on an empty
// slice: a thread must always have something to execute.
func NewSliceSource(insts []isa.Inst) *SliceSource {
	if len(insts) == 0 {
		panic("trace: empty instruction slice")
	}
	return &SliceSource{insts: insts}
}

// Next implements Source.
func (s *SliceSource) Next(out *isa.Inst) {
	*out = s.insts[s.pos]
	s.pos++
	if s.pos == len(s.insts) {
		s.pos = 0
	}
}

// Len returns the trace length in instructions.
func (s *SliceSource) Len() int { return len(s.insts) }

// Legacy MFTRACE1 file format (read-only): an 8-byte magic+version
// header, then fixed 29-byte instruction records — the same encoding
// MFSCEN1 instruction records embed.
const (
	fileMagic   = "MFTRACE1"
	recordBytes = 8 + 1 + 1 + 1 + 1 + 8 + 1 + 8
)

// ErrBadTrace reports a malformed trace file.
var ErrBadTrace = errors.New("trace: malformed trace file")

// decodeInst decodes one 29-byte instruction record found at byte off,
// rejecting an out-of-range class. MissLatency is left zero.
func decodeInst(rec []byte, off int64) (isa.Inst, error) {
	cls := isa.Class(rec[8])
	if int(cls) >= isa.NumClasses {
		return isa.Inst{}, badAt(off, "instruction record has class %d", cls)
	}
	return isa.Inst{
		PC:     binary.LittleEndian.Uint64(rec[0:]),
		Class:  cls,
		Dest:   isa.Reg(rec[9]),
		Src1:   isa.Reg(rec[10]),
		Src2:   isa.Reg(rec[11]),
		Addr:   binary.LittleEndian.Uint64(rec[12:]),
		Taken:  rec[20] == 1,
		Target: binary.LittleEndian.Uint64(rec[21:]),
	}, nil
}

// readLegacy parses a complete MFTRACE1 file into memory: the legacy
// branch of ReadScenario, which has already sniffed the magic. Parse errors wrap ErrBadTrace and carry the
// byte offset of the offending record.
func readLegacy(br *bufio.Reader) ([]isa.Inst, error) {
	if _, err := br.Discard(len(fileMagic)); err != nil {
		return nil, badAt(0, "reading header: %w", err)
	}
	var out []isa.Inst
	var buf [recordBytes]byte
	for {
		off := int64(len(fileMagic)) + int64(len(out))*recordBytes
		_, err := io.ReadFull(br, buf[:])
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, badAt(off, "truncated record %d: %w", len(out), err)
		}
		in, err := decodeInst(buf[:], off)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
}

// BBDict is the basic-block dictionary: a deterministic map from any PC to
// static instruction information, used to synthesise wrong-path
// instruction streams. Real SMTsim records every static instruction of
// the binary; we derive equivalent information from a hash of the PC, so
// the same PC always yields the same "static" instruction — wrong paths
// are repeatable and pollute the icache/predictor consistently.
type BBDict struct {
	// dataBase/dataSpan direct wrong-path memory accesses into the
	// owning thread's address space so pollution lands in its own
	// working set.
	dataBase uint64
	dataSpan uint64
}

// NewBBDict builds a dictionary whose wrong-path memory accesses fall in
// [dataBase, dataBase+dataSpan).
func NewBBDict(dataBase, dataSpan uint64) *BBDict {
	if dataSpan == 0 {
		dataSpan = 1 << 20
	}
	return &BBDict{dataBase: dataBase, dataSpan: dataSpan}
}

// hashPC mixes a PC into pseudo-random static instruction bits.
func hashPC(pc uint64) uint64 {
	x := pc * 0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x
}

// InstAt synthesises the static instruction at pc, overwriting every
// field of out. Wrong-path streams are mostly ALU work with occasional
// loads; control instructions fall through (wrong paths are never
// followed further).
func (d *BBDict) InstAt(pc uint64, out *isa.Inst) {
	h := hashPC(pc)
	out.PC = pc
	out.Taken = false
	out.Target = 0
	out.Addr = 0
	out.MissLatency = 0
	out.Dest = isa.Reg(1 + (h>>8)%62)
	out.Src1 = isa.Reg(1 + (h>>16)%62)
	out.Src2 = isa.Reg(1 + (h>>24)%62)
	switch h % 16 {
	case 0, 1, 2:
		out.Class = isa.ClassLoad
		out.Addr = d.dataBase + (h>>32)%d.dataSpan
	case 3:
		out.Class = isa.ClassStore
		out.Addr = d.dataBase + (h>>32)%d.dataSpan
	case 4:
		out.Class = isa.ClassBranch
		out.Dest = isa.InvalidReg
	case 5:
		out.Class = isa.ClassFP
	default:
		out.Class = isa.ClassInt
	}
}
