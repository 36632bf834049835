// Scenario traces: multi-thread instruction streams with per-instruction
// miss-latency overrides and phase markers, in two interchangeable
// encodings — JSONL for hand-editing and a fixed-record binary format
// (MFSCEN1) for bulk files. ReadScenario sniffs the encoding from the
// first bytes, and also accepts a legacy single-thread MFTRACE1 file,
// so every trace file the repo has ever written loads through one entry
// point. All parse errors carry the byte offset of the offending input,
// mirroring the campaign store's torn-tail discipline, and hostile
// inputs must never panic (fuzz-enforced).
package trace

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/isa"
)

// PhaseMark labels a position in one thread's stream, e.g. the boundary
// where a synthesized scenario switches latency regimes. Markers are
// documentation for humans and tools; replay ignores them.
type PhaseMark struct {
	// Thread is the stream the marker belongs to.
	Thread int `json:"t"`
	// Index is the instruction index within the thread the marker
	// precedes (0 = before the first instruction).
	Index int `json:"i"`
	// Label names the phase ("ramp", "burst", ...).
	Label string `json:"phase"`
}

// Scenario is a loaded scenario trace: one finite instruction stream per
// thread (replayed in a loop, like every trace.Source), plus optional
// phase markers.
type Scenario struct {
	// Threads holds one instruction stream per hardware context, dense
	// from thread 0.
	Threads [][]isa.Inst
	// Phases are the scenario's phase markers, in file order.
	Phases []PhaseMark
}

// Validate checks the scenario can drive a simulation: at least one
// thread, no empty threads, and markers that point into their thread.
func (s *Scenario) Validate() error {
	if len(s.Threads) == 0 {
		return fmt.Errorf("%w: scenario has no threads", ErrBadTrace)
	}
	for t, insts := range s.Threads {
		if len(insts) == 0 {
			return fmt.Errorf("%w: thread %d has no instructions", ErrBadTrace, t)
		}
	}
	for _, p := range s.Phases {
		if p.Thread < 0 || p.Thread >= len(s.Threads) {
			return fmt.Errorf("%w: phase %q names thread %d of %d", ErrBadTrace, p.Label, p.Thread, len(s.Threads))
		}
		if p.Index < 0 || p.Index > len(s.Threads[p.Thread]) {
			return fmt.Errorf("%w: phase %q index %d outside thread %d", ErrBadTrace, p.Label, p.Index, p.Thread)
		}
	}
	return nil
}

// ThreadTraces returns the per-thread streams in the shape
// sim.Options.ThreadTraces expects, after validating the scenario.
func (s *Scenario) ThreadTraces() ([][]isa.Inst, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s.Threads, nil
}

// Binary scenario format: 8-byte magic, then typed records. An
// instruction record is the thread ID, the 29-byte MFTRACE1 instruction
// encoding, and the 4-byte miss-latency override; a phase record is a
// length-prefixed label. Thread IDs are dense from 0.
const (
	scenMagic = "MFSCEN1\n"

	scenRecInst  = 0x01 // [tag u8][thread u8][29B MFTRACE1 record][missLat u32 LE]
	scenRecPhase = 0x02 // [tag u8][thread u8][labelLen u16 LE][label bytes]

	scenInstBytes = 2 + recordBytes + 4
	maxPhaseLabel = 1 << 10
)

// maxScenThreads bounds thread IDs (the simulator cannot use more than a
// byte's worth of contexts anyway); it keeps hostile files from forcing
// huge allocations.
const maxScenThreads = 256

// offsetError wraps a scenario parse failure with the byte offset it was
// detected at, so a truncated or corrupt file is locatable with dd/xxd.
type offsetError struct {
	off int64
	err error
}

// Error names the failure and where in the input it was found.
func (e *offsetError) Error() string {
	return fmt.Sprintf("byte %d: %v", e.off, e.err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *offsetError) Unwrap() error { return e.err }

// Offset returns the byte offset at which a scenario parse error was
// detected, and whether the error carries one.
func Offset(err error) (int64, bool) {
	var oe *offsetError
	if errors.As(err, &oe) {
		return oe.off, true
	}
	return 0, false
}

// badAt builds a parse error carrying the byte offset of the
// corruption, wrapping ErrBadTrace — and, because the format runs
// through fmt.Errorf, any %w-formatted cause in args stays on the
// chain (errwrap requires %w for error arguments here).
func badAt(off int64, format string, args ...any) error {
	return &offsetError{off: off, err: fmt.Errorf("%w: "+format, append([]any{ErrBadTrace}, args...)...)}
}

// ReadScenario sniffs the encoding of r from its leading bytes and
// parses a complete scenario: MFSCEN1 binary, legacy MFTRACE1 (loaded
// as a single thread 0 with no overrides), or JSONL otherwise.
func ReadScenario(r io.Reader) (*Scenario, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(scenMagic))
	if err != nil && err != io.EOF {
		return nil, badAt(0, "reading header: %w", err)
	}
	switch {
	case string(head) == scenMagic:
		return readScenarioBinary(br)
	case len(head) >= len(fileMagic) && string(head[:len(fileMagic)]) == fileMagic:
		insts, err := readLegacy(br)
		if err != nil {
			return nil, err
		}
		s := &Scenario{Threads: [][]isa.Inst{insts}}
		if err := s.Validate(); err != nil {
			return nil, err
		}
		return s, nil
	default:
		return readScenarioJSONL(br)
	}
}

// LoadScenario reads the scenario file at path.
func LoadScenario(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ReadScenario(f)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return s, nil
}

// SumFile returns the hex SHA-256 of the raw bytes of the file at path —
// the content digest campaign job keys are derived from.
func SumFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("trace: digesting %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func readScenarioBinary(br *bufio.Reader) (*Scenario, error) {
	if _, err := br.Discard(len(scenMagic)); err != nil {
		return nil, badAt(0, "reading header: %w", err)
	}
	off := int64(len(scenMagic))
	var s Scenario
	var tag [1]byte
	for {
		_, err := io.ReadFull(br, tag[:])
		if err == io.EOF {
			if err := s.Validate(); err != nil {
				return nil, err
			}
			return &s, nil
		}
		if err != nil {
			return nil, badAt(off, "reading record tag: %w", err)
		}
		switch tag[0] {
		case scenRecInst:
			var buf [scenInstBytes - 1]byte
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				return nil, badAt(off, "truncated instruction record: %w", err)
			}
			t := int(buf[0])
			in, err := decodeInst(buf[1:1+recordBytes], off)
			if err != nil {
				return nil, err
			}
			if t >= maxScenThreads {
				return nil, badAt(off, "thread %d exceeds the %d-thread limit", t, maxScenThreads)
			}
			for len(s.Threads) <= t {
				s.Threads = append(s.Threads, nil)
			}
			in.MissLatency = binary.LittleEndian.Uint32(buf[1+recordBytes:])
			s.Threads[t] = append(s.Threads[t], in)
			off += scenInstBytes
		case scenRecPhase:
			var hdr [3]byte
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				return nil, badAt(off, "truncated phase record: %w", err)
			}
			t := int(hdr[0])
			n := int(binary.LittleEndian.Uint16(hdr[1:]))
			if t >= maxScenThreads {
				return nil, badAt(off, "phase thread %d exceeds the %d-thread limit", t, maxScenThreads)
			}
			if n > maxPhaseLabel {
				return nil, badAt(off, "phase label length %d exceeds %d", n, maxPhaseLabel)
			}
			label := make([]byte, n)
			if _, err := io.ReadFull(br, label); err != nil {
				return nil, badAt(off, "truncated phase label: %w", err)
			}
			for len(s.Threads) <= t {
				s.Threads = append(s.Threads, nil)
			}
			s.Phases = append(s.Phases, PhaseMark{
				Thread: t,
				Index:  len(s.Threads[t]),
				Label:  string(label),
			})
			off += int64(1 + len(hdr) + n)
		default:
			return nil, badAt(off, "unknown record tag %#x", tag[0])
		}
	}
}

// scenLine is the JSONL record: one flat object per line. A line with
// "phase" set is a marker; anything else is an instruction on thread
// "t". Register fields are optional (absent means no operand), class is
// the mnemonic family name, and "miss_lat" is the per-instruction
// main-memory latency override in cycles (0/absent: configured latency).
type scenLine struct {
	Thread  int    `json:"t"`
	Phase   string `json:"phase,omitempty"`
	PC      uint64 `json:"pc,omitempty"`
	Class   string `json:"class,omitempty"`
	Dest    *uint8 `json:"dest,omitempty"`
	Src1    *uint8 `json:"src1,omitempty"`
	Src2    *uint8 `json:"src2,omitempty"`
	Addr    uint64 `json:"addr,omitempty"`
	Taken   bool   `json:"taken,omitempty"`
	Target  uint64 `json:"target,omitempty"`
	MissLat uint32 `json:"miss_lat,omitempty"`
}

// classByName maps mnemonic family names back to classes (the inverse of
// isa.Class.String).
func classByName(name string) (isa.Class, bool) {
	for c := 0; c < isa.NumClasses; c++ {
		if isa.Class(c).String() == name {
			return isa.Class(c), true
		}
	}
	return 0, false
}

func readScenarioJSONL(br *bufio.Reader) (*Scenario, error) {
	var s Scenario
	var off int64
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		raw := sc.Bytes()
		lineNo++
		lineStart := off
		off += int64(len(raw)) + 1
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			continue
		}
		var rec scenLine
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			return nil, badAt(lineStart, "line %d: %w", lineNo, err)
		}
		if dec.More() {
			return nil, badAt(lineStart, "line %d: trailing data after object", lineNo)
		}
		if rec.Thread < 0 || rec.Thread >= maxScenThreads {
			return nil, badAt(lineStart, "line %d: thread %d outside [0,%d)", lineNo, rec.Thread, maxScenThreads)
		}
		for len(s.Threads) <= rec.Thread {
			s.Threads = append(s.Threads, nil)
		}
		if rec.Phase != "" {
			s.Phases = append(s.Phases, PhaseMark{
				Thread: rec.Thread,
				Index:  len(s.Threads[rec.Thread]),
				Label:  rec.Phase,
			})
			continue
		}
		cls, ok := classByName(rec.Class)
		if !ok {
			return nil, badAt(lineStart, "line %d: unknown class %q", lineNo, rec.Class)
		}
		reg := func(p *uint8) (isa.Reg, error) {
			if p == nil {
				return isa.InvalidReg, nil
			}
			if *p >= isa.NumArchRegs {
				return 0, badAt(lineStart, "line %d: register %d outside [0,%d)", lineNo, *p, isa.NumArchRegs)
			}
			return isa.Reg(*p), nil
		}
		dest, err := reg(rec.Dest)
		if err != nil {
			return nil, err
		}
		src1, err := reg(rec.Src1)
		if err != nil {
			return nil, err
		}
		src2, err := reg(rec.Src2)
		if err != nil {
			return nil, err
		}
		s.Threads[rec.Thread] = append(s.Threads[rec.Thread], isa.Inst{
			PC:          rec.PC,
			Class:       cls,
			Dest:        dest,
			Src1:        src1,
			Src2:        src2,
			Addr:        rec.Addr,
			Taken:       rec.Taken,
			Target:      rec.Target,
			MissLatency: rec.MissLat,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, badAt(off, "line %d: %w", lineNo+1, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// WriteScenarioBinary writes s in the MFSCEN1 binary encoding. Output is
// deterministic: records are emitted thread-major in stream order with
// phase markers interleaved at their indices.
func WriteScenarioBinary(w io.Writer, s *Scenario) error {
	if err := s.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(scenMagic); err != nil {
		return fmt.Errorf("trace: writing scenario header: %w", err)
	}
	var buf [scenInstBytes]byte
	for t, insts := range s.Threads {
		if t >= maxScenThreads {
			return fmt.Errorf("%w: thread %d exceeds the %d-thread limit", ErrBadTrace, t, maxScenThreads)
		}
		marks := phasesAt(s.Phases, t)
		for i, in := range insts {
			if err := writeMarks(bw, marks, t, i); err != nil {
				return err
			}
			buf[0] = scenRecInst
			buf[1] = byte(t)
			rec := buf[2:]
			binary.LittleEndian.PutUint64(rec[0:], in.PC)
			rec[8] = byte(in.Class)
			rec[9] = byte(in.Dest)
			rec[10] = byte(in.Src1)
			rec[11] = byte(in.Src2)
			binary.LittleEndian.PutUint64(rec[12:], in.Addr)
			rec[20] = 0
			if in.Taken {
				rec[20] = 1
			}
			binary.LittleEndian.PutUint64(rec[21:], in.Target)
			binary.LittleEndian.PutUint32(rec[recordBytes:], in.MissLatency)
			if _, err := bw.Write(buf[:]); err != nil {
				return fmt.Errorf("trace: writing scenario record: %w", err)
			}
		}
		if err := writeMarks(bw, marks, t, len(insts)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// phasesAt filters the markers of one thread, preserving order.
func phasesAt(phases []PhaseMark, t int) []PhaseMark {
	var out []PhaseMark
	for _, p := range phases {
		if p.Thread == t {
			out = append(out, p)
		}
	}
	return out
}

func writeMarks(bw *bufio.Writer, marks []PhaseMark, t, idx int) error {
	for _, p := range marks {
		if p.Index != idx {
			continue
		}
		if len(p.Label) > maxPhaseLabel {
			return fmt.Errorf("%w: phase label length %d exceeds %d", ErrBadTrace, len(p.Label), maxPhaseLabel)
		}
		var hdr [4]byte
		hdr[0] = scenRecPhase
		hdr[1] = byte(t)
		binary.LittleEndian.PutUint16(hdr[2:], uint16(len(p.Label)))
		if _, err := bw.Write(hdr[:]); err != nil {
			return fmt.Errorf("trace: writing phase record: %w", err)
		}
		if _, err := bw.WriteString(p.Label); err != nil {
			return fmt.Errorf("trace: writing phase label: %w", err)
		}
	}
	return nil
}

// WriteScenarioJSONL writes s as JSONL, one object per line, in the same
// deterministic order as the binary encoding.
func WriteScenarioJSONL(w io.Writer, s *Scenario) error {
	if err := s.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	emit := func(v scenLine) error {
		if err := enc.Encode(v); err != nil {
			return fmt.Errorf("trace: encoding scenario line: %w", err)
		}
		return nil
	}
	for t, insts := range s.Threads {
		marks := phasesAt(s.Phases, t)
		emitMarks := func(idx int) error {
			for _, p := range marks {
				if p.Index != idx {
					continue
				}
				if err := emit(scenLine{Thread: t, Phase: p.Label}); err != nil {
					return err
				}
			}
			return nil
		}
		for i, in := range insts {
			if err := emitMarks(i); err != nil {
				return err
			}
			line := scenLine{
				Thread:  t,
				PC:      in.PC,
				Class:   in.Class.String(),
				Addr:    in.Addr,
				Taken:   in.Taken,
				Target:  in.Target,
				MissLat: in.MissLatency,
			}
			reg := func(r isa.Reg) *uint8 {
				if r == isa.InvalidReg {
					return nil
				}
				v := uint8(r)
				return &v
			}
			line.Dest = reg(in.Dest)
			line.Src1 = reg(in.Src1)
			line.Src2 = reg(in.Src2)
			if err := emit(line); err != nil {
				return err
			}
		}
		if err := emitMarks(len(insts)); err != nil {
			return err
		}
	}
	return bw.Flush()
}
