package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"weak"

	"repro/internal/cache"
	"repro/internal/cmp"
	"repro/internal/config"
	"repro/internal/policy"
	"repro/internal/synth"
	"repro/internal/trace"
)

// machine is a chip together with what the next job on the same
// configuration can reuse of its last one: the instruction generators its
// hardware contexts ran, and a copy of the L2 tag store as its last
// prewarm left it, with the footprint layout that produced it.
//
// A finished Session hands its machine to the pool of its configuration,
// and the next Open of that configuration takes it and resets every
// component to exactly what construction produces (cmp.Chip.Reset,
// synth.Generator.Reset), keeping the storage. A sweep therefore builds a
// handful of machines instead of one per job, and the garbage collector
// has almost nothing to collect.
type machine struct {
	chip *cmp.Chip
	// gens[g] is the generator thread slot g last ran, nil if it never
	// ran one.
	gens []*synth.Generator
	// image holds the L2 tag store, hit/miss/insert counts included, as
	// the prewarm with layout warmed left it; nil before the first
	// prewarm. layout is scratch for the next job's layout.
	image          *cache.Cache
	warmed, layout []span
}

// span is one thread's data footprint during prewarm: the next line to
// fill and the end of the footprint.
type span struct {
	next, end uint64
}

// machines holds the finished machines of each configuration with the
// seed zeroed, most recently finished last: nothing inside a machine
// reads the seed, so jobs that differ only in seed, workload or policy
// share machines.
//
// It holds them weakly, so the next garbage collection frees every
// machine no job has taken back. A sync.Pool also drops its contents at
// collections, but it keeps each machine in the slot of the processor
// that finished it, so a job that resumes on another processor misses it
// and builds one more: on two processors, two sweep workers kept six
// machines alive and one solo client two, which raised peak RSS by
// 16-19%. One shared stack per configuration holds no more machines than
// ran at once.
//
// A configuration keeps its key only while it has entries: takeMachine
// deletes a key whose stack empties, and every pooled machine carries a
// cleanup (forgetMachine) that drops its entry, and the key with the
// last one, once the collector frees it. So a configuration that falls
// out of use costs no memory, not even its key.
var machines = struct {
	mu   sync.Mutex
	free map[config.Config][]weak.Pointer[machine]
}{free: make(map[config.Config][]weak.Pointer[machine])}

// poolKey is the machines key of a machine built for cfg.
func poolKey(cfg config.Config) config.Config {
	cfg.Seed = 0
	return cfg
}

// pooledMachine names one machine's entry in machines.
type pooledMachine struct {
	key config.Config
	ref weak.Pointer[machine]
}

// takeMachine takes the most recently finished machine of key that is
// still alive, or returns nil.
func takeMachine(key config.Config) *machine {
	machines.mu.Lock()
	defer machines.mu.Unlock()
	stack := machines.free[key]
	var m *machine
	for m == nil && len(stack) > 0 {
		m = stack[len(stack)-1].Value()
		stack[len(stack)-1] = weak.Pointer[machine]{}
		stack = stack[:len(stack)-1]
	}
	setStackLocked(key, stack)
	return m
}

// setStackLocked stores the stack of key, deleting the key when the stack
// is empty. The caller holds machines.mu.
func setStackLocked(key config.Config, stack []weak.Pointer[machine]) {
	if len(stack) == 0 {
		delete(machines.free, key)
	} else {
		machines.free[key] = stack
	}
}

// release hands the machine to the next job on its configuration. The
// caller must not touch it, or its chip, afterwards.
func (m *machine) release() {
	key := poolKey(m.chip.Config())
	machines.mu.Lock()
	machines.free[key] = append(machines.free[key], weak.Make(m))
	machines.mu.Unlock()
}

// forgetMachine is the cleanup of a collected pooled machine: it drops
// the machine's entry, and its configuration's key if that empties the
// stack.
func forgetMachine(e pooledMachine) {
	machines.mu.Lock()
	defer machines.mu.Unlock()
	setStackLocked(e.key, slices.DeleteFunc(machines.free[e.key], func(p weak.Pointer[machine]) bool { return p == e.ref }))
}

// buildChip assembles a new machine for opt and returns its chip, the
// form tests use to measure the cycle loop (allocations, throughput) apart
// from construction.
func buildChip(opt Options) (*cmp.Chip, error) {
	m, err := buildMachine(opt, false)
	if err != nil {
		return nil, err
	}
	return m.chip, nil
}

// buildMachine readies the machine, workload sources and policies for one
// run, including functional L2 pre-warming. With reuse it takes a
// finished machine of the run's configuration from the pool when there is
// one; otherwise, and on a pool miss, it builds a new one.
func buildMachine(opt Options, reuse bool) (*machine, error) {
	cores := opt.Cores
	if cores == 0 {
		if len(opt.ThreadTraces) > 0 {
			cores = replayCores(opt, len(opt.ThreadTraces))
		} else {
			cores = opt.Workload.Cores()
		}
	}
	cfg := config.Default(cores)
	cfg.Seed = opt.Seed
	if opt.Tweak != nil {
		opt.Tweak(&cfg)
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("sim: tweaked config invalid: %w", err)
		}
	}

	var profiles []synth.Profile
	threadsPerCore := cfg.Core.ThreadsPerCore
	if len(opt.ThreadTraces) > 0 {
		if len(opt.ThreadTraces) > cores*threadsPerCore {
			return nil, fmt.Errorf("sim: %d traces need more than the %d available contexts",
				len(opt.ThreadTraces), cores*threadsPerCore)
		}
		for i, tr := range opt.ThreadTraces {
			if len(tr) == 0 {
				return nil, fmt.Errorf("sim: trace %d is empty", i)
			}
		}
	} else {
		var err error
		profiles, err = opt.Workload.Profiles()
		if err != nil {
			return nil, err
		}
		if len(profiles) > cores*threadsPerCore {
			return nil, fmt.Errorf("sim: workload %s needs %d contexts, machine has %d",
				opt.Workload.Name, len(profiles), cores*threadsPerCore)
		}
	}

	policies := make([]*policy.Policy, cores)
	for c := range policies {
		p, err := opt.Policy.Build(&cfg)
		if err != nil {
			return nil, err
		}
		policies[c] = p
	}

	m := &machine{}
	if reuse {
		if pooled := takeMachine(poolKey(cfg)); pooled != nil {
			m = pooled
		}
	}
	sources := make([][]trace.Source, cores)
	dataBases := make([][]uint64, cores)
	for c := 0; c < cores; c++ {
		for t := 0; t < threadsPerCore; t++ {
			g := c*threadsPerCore + t
			seed, base := ReplayStream(opt.Seed, g)
			var src trace.Source
			if len(opt.ThreadTraces) > 0 {
				// Replay mode: threads beyond the supplied traces
				// re-run them modulo the trace count.
				src = trace.NewSliceSource(opt.ThreadTraces[g%len(opt.ThreadTraces)])
			} else {
				// Threads beyond the workload re-run it modulo its size
				// (never happens for the paper's workloads, which
				// exactly fill the machine).
				src = m.generator(g, profiles[g%len(profiles)], seed, base)
			}
			sources[c] = append(sources[c], src)
			dataBases[c] = append(dataBases[c], synth.DataBase(base))
		}
	}

	if m.chip == nil {
		chip, err := cmp.New(cfg, policies, sources, dataBases)
		if err != nil {
			return nil, err
		}
		m.chip = chip
		if reuse {
			runtime.AddCleanup(m, forgetMachine, pooledMachine{poolKey(chip.Config()), weak.Make(m)})
		}
	} else if err := m.chip.Reset(cfg, policies, sources, dataBases); err != nil {
		return nil, err
	}
	if len(profiles) > 0 {
		m.prewarm(profiles, dataBases)
	}
	return m, nil
}

// generator returns thread slot g's generator reset for (prof, seed,
// base), or a new one if the slot never ran one.
func (m *machine) generator(g int, prof synth.Profile, seed, base uint64) *synth.Generator {
	if g < len(m.gens) && m.gens[g] != nil {
		m.gens[g].Reset(prof, seed, base)
		return m.gens[g]
	}
	for len(m.gens) <= g {
		m.gens = append(m.gens, nil)
	}
	m.gens[g] = synth.NewGenerator(prof, seed, base)
	return m.gens[g]
}

// prewarm functionally fills the chip's L2 with each thread's data
// footprint, interleaved across threads so each retains a proportional
// share. The paper's 120M-cycle runs reach this steady state on their
// own; our shorter windows would otherwise keep reporting virgin-page
// cold misses that no real steady state contains. Footprints larger than
// twice the L2 are skipped: they churn the cache regardless, so
// prewarming them would only distort LRU state.
//
// The filled L2 depends only on its geometry, fixed per machine, and the
// footprint layout. The layout does not depend on the seed: the data
// bases come from the thread slots (ReplayStream). So a machine keeps the
// L2 image of its last prewarm, and a job with the same layout copies it
// back instead of refilling.
func (m *machine) prewarm(profiles []synth.Profile, dataBases [][]uint64) {
	l2 := m.chip.L2().Cache()
	geom := m.chip.Config().Mem.L2
	capBytes, line := uint64(2*geom.SizeBytes), uint64(geom.LineBytes)
	m.layout = m.layout[:0]
	idx := 0
	for c := range dataBases {
		for t := range dataBases[c] {
			prof := profiles[idx%len(profiles)]
			idx++
			if prof.FootprintBytes > capBytes {
				continue
			}
			dataBase := dataBases[c][t]
			m.layout = append(m.layout, span{next: dataBase, end: dataBase + prof.FootprintBytes})
		}
	}
	if m.image != nil && slices.Equal(m.layout, m.warmed) {
		l2.CopyFrom(m.image)
		return
	}
	m.warmed = append(m.warmed[:0], m.layout...)
	for {
		progressed := false
		for i := range m.layout {
			cu := &m.layout[i]
			if cu.next >= cu.end {
				continue
			}
			l2.Fill(cu.next)
			cu.next += line
			progressed = true
		}
		if !progressed {
			break
		}
	}
	if m.image == nil {
		m.image = cache.New(geom)
	}
	m.image.CopyFrom(l2)
}
