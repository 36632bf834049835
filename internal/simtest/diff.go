// The differential harness for the simulator's execution modes: it
// proves that running N variants as a lockstep gang (sim.GangSession)
// is observationally bit-identical to running each variant alone as a
// width-1 sim.Session — exactly what sim.Run executes — and localises
// the first divergence when it is not. Both sides build and step
// through the same Session code, so the harness isolates what the gang
// adds (lockstep stepping and member bookkeeping); the golden
// fingerprints in internal/sim remain the absolute reference for the
// results themselves. The unit, metamorphic
// and race tests across internal/sim and internal/campaign are built on
// it, so "gang = solo" is frozen as an executable invariant rather than
// a comment.

package simtest

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/sim"
)

// Fingerprint flattens every externally observable metric of a Result —
// the flat Summary digest (counters, per-thread commits, IPC, energy,
// interval samples) plus the full L2 hit-latency histogram — into one
// comparable string. Two Results with equal fingerprints are
// bit-identical in everything the repo reports anywhere: JSON encoding
// of float64 is shortest-round-trip, so distinct values never collide.
func Fingerprint(r *sim.Result) string {
	b, err := json.Marshal(r.Summary())
	if err != nil {
		// Summary is plain data; failure to encode it is a programming
		// error, not a comparison outcome.
		panic(fmt.Sprintf("simtest: encoding summary: %v", err))
	}
	return string(b) + "|percore=" + fmt.Sprint(r.PerCore) + "|hitlat=" + r.HitLatency.String()
}

// DiffConfig shapes one differential run.
type DiffConfig struct {
	// Chunk is the lockstep stepping granularity: both executions
	// advance in Chunk-cycle steps with a full per-member digest
	// comparison at every boundary, so a divergence is reported at the
	// first boundary it is visible, not at the end. Zero steps each
	// window in one chunk (divergences then localise only per window).
	Chunk uint64
}

// DiffGang runs opts once as a gang and once as N independent width-1
// sessions (sim.Open, the build sim.Run uses), comparing every
// member's observable state at every chunk boundary and the full
// Results (Fingerprint) at the end. It returns nil when the gang is
// bit-identical to solo, and otherwise an error
// naming the first diverging member, cycle and field. Members'
// Interval sampling, when set, is exercised on both sides and the
// recorded series compared point by point.
//
// All members must share one (Cycles, Warmup) window, like RunGang.
func DiffGang(opts []sim.Options, cfg DiffConfig) error {
	if len(opts) == 0 {
		return fmt.Errorf("simtest: empty gang")
	}
	cycles, warmup := opts[0].Cycles, opts[0].Warmup
	if cycles == 0 {
		return fmt.Errorf("simtest: zero cycle budget")
	}
	for i, o := range opts {
		if o.Cycles != cycles || o.Warmup != warmup {
			return fmt.Errorf("simtest: member %d window differs from member 0", i)
		}
	}

	solo := make([]*sim.Session, len(opts))
	for i, o := range opts {
		s, err := sim.Open(o)
		if err != nil {
			return fmt.Errorf("simtest: solo member %d: %w", i, err)
		}
		solo[i] = s
	}
	gang, err := sim.OpenGang(opts)
	if err != nil {
		return fmt.Errorf("simtest: %w", err)
	}

	step := func(n uint64) error {
		for done := uint64(0); done < n; {
			c := n - done
			if cfg.Chunk > 0 && c > cfg.Chunk {
				c = cfg.Chunk
			}
			gang.Step(c)
			for m, s := range solo {
				s.Step(c)
				if err := diffSamples(m, gang.Snapshot(m), s.Snapshot()); err != nil {
					return err
				}
			}
			done += c
		}
		return nil
	}

	if warmup > 0 {
		if err := step(warmup); err != nil {
			return err
		}
		gang.ResetMeasurement()
		for _, s := range solo {
			s.ResetMeasurement()
		}
	}
	gangRecs := make([]*sim.Recorder, len(opts))
	soloRecs := make([]*sim.Recorder, len(opts))
	for m, o := range opts {
		if o.Interval == 0 {
			continue
		}
		gangRecs[m] = &sim.Recorder{}
		soloRecs[m] = &sim.Recorder{}
		if err := gang.Observe(m, gangRecs[m].Probe(o.Interval)); err != nil {
			return fmt.Errorf("simtest: gang member %d: %w", m, err)
		}
		if err := solo[m].Observe(soloRecs[m].Probe(o.Interval)); err != nil {
			return fmt.Errorf("simtest: solo member %d: %w", m, err)
		}
	}
	if err := step(cycles); err != nil {
		return err
	}

	gangRes, err := gang.Finish()
	if err != nil {
		return fmt.Errorf("simtest: gang finish: %w", err)
	}
	for m := range opts {
		soloRes, err := solo[m].Finish()
		if err != nil {
			return fmt.Errorf("simtest: solo member %d finish: %w", m, err)
		}
		if gr, sr := gangRecs[m], soloRecs[m]; gr != nil {
			gangRes[m].Samples = gr.Points
			soloRes.Samples = sr.Points
			if err := diffPoints(m, gr.Points, sr.Points); err != nil {
				return err
			}
		}
		if gf, sf := Fingerprint(gangRes[m]), Fingerprint(soloRes); gf != sf {
			return fmt.Errorf("simtest: member %d result fingerprint diverged\n gang: %s\n solo: %s", m, gf, sf)
		}
	}
	return nil
}

// diffSamples compares one member's gang and solo digests field by
// field, floats by exact bits, and names the first difference.
func diffSamples(m int, gang, solo *sim.Sample) error {
	fail := func(field string, g, s any) error {
		return fmt.Errorf("simtest: member %d diverged at cycle %d: %s gang=%v solo=%v",
			m, solo.Cycle, field, g, s)
	}
	if gang.Cycle != solo.Cycle {
		return fail("cycle", gang.Cycle, solo.Cycle)
	}
	if gang.MeasuredCycles != solo.MeasuredCycles {
		return fail("measured_cycles", gang.MeasuredCycles, solo.MeasuredCycles)
	}
	if len(gang.Committed) != len(solo.Committed) {
		return fail("committed threads", len(gang.Committed), len(solo.Committed))
	}
	for t := range gang.Committed {
		if gang.Committed[t] != solo.Committed[t] {
			return fail(fmt.Sprintf("committed[%d]", t), gang.Committed[t], solo.Committed[t])
		}
	}
	if math.Float64bits(gang.IPC) != math.Float64bits(solo.IPC) {
		return fail("ipc", gang.IPC, solo.IPC)
	}
	if gang.Flushes != solo.Flushes {
		return fail("flushes", gang.Flushes, solo.Flushes)
	}
	if gang.FlushedInsts != solo.FlushedInsts {
		return fail("flushed_insts", gang.FlushedInsts, solo.FlushedInsts)
	}
	if math.Float64bits(gang.WastedEnergy) != math.Float64bits(solo.WastedEnergy) {
		return fail("wasted_energy", gang.WastedEnergy, solo.WastedEnergy)
	}
	if gang.L2Hits != solo.L2Hits {
		return fail("l2_hits", gang.L2Hits, solo.L2Hits)
	}
	if gang.L2Misses != solo.L2Misses {
		return fail("l2_misses", gang.L2Misses, solo.L2Misses)
	}
	if len(gang.MCReg) != len(solo.MCReg) {
		return fail("mcreg cores", len(gang.MCReg), len(solo.MCReg))
	}
	for c := range gang.MCReg {
		if len(gang.MCReg[c]) != len(solo.MCReg[c]) {
			return fail(fmt.Sprintf("mcreg[%d] banks", c), len(gang.MCReg[c]), len(solo.MCReg[c]))
		}
		for b := range gang.MCReg[c] {
			if gang.MCReg[c][b] != solo.MCReg[c][b] {
				return fail(fmt.Sprintf("mcreg[%d][%d]", c, b), gang.MCReg[c][b], solo.MCReg[c][b])
			}
		}
	}
	return nil
}

// diffPoints compares recorded interval series via their JSON forms
// (the schema every layer above ships), naming the first divergence.
func diffPoints(m int, gang, solo []sim.SamplePoint) error {
	if len(gang) != len(solo) {
		return fmt.Errorf("simtest: member %d recorded %d gang samples, %d solo", m, len(gang), len(solo))
	}
	for i := range gang {
		g, _ := json.Marshal(gang[i])
		s, _ := json.Marshal(solo[i])
		if string(g) != string(s) {
			return fmt.Errorf("simtest: member %d sample %d diverged\n gang: %s\n solo: %s", m, i, g, s)
		}
	}
	return nil
}
