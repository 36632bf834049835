package sim

import "fmt"

// GangSession is N Sessions opened together and stepped over one
// window, each call looping over the members in order. It stays only for
// the benchmark's traced gang runner (bench/mflushperf/trace.go).
type GangSession struct {
	members []*Session
}

// OpenGang opens one Session per member, positioned at cycle zero.
func OpenGang(opts []Options) (*GangSession, error) {
	if len(opts) == 0 {
		return nil, fmt.Errorf("sim: gang needs at least one member")
	}
	g := &GangSession{members: make([]*Session, len(opts))}
	for m, opt := range opts {
		s, err := Open(opt)
		if err != nil {
			return nil, memberErr(len(opts), m, err)
		}
		g.members[m] = s
	}
	return g, nil
}

// memberErr names the failing member of a multi-member gang. A width-1
// gang is a solo run, so its errors read exactly as a Session's do.
func memberErr(width, m int, err error) error {
	if width == 1 {
		return err
	}
	return fmt.Errorf("sim: gang member %d: %w", m, err)
}

// Step advances every member by n cycles, in member order.
func (g *GangSession) Step(n uint64) {
	for _, s := range g.members {
		s.Step(n)
	}
}

// ResetMeasurement restarts every member's measurement window.
func (g *GangSession) ResetMeasurement() {
	for _, s := range g.members {
		s.ResetMeasurement()
	}
}

// Finish finishes every member in order and returns their Results. The
// first member error is returned after all are finished.
func (g *GangSession) Finish() ([]*Result, error) {
	results := make([]*Result, len(g.members))
	var firstErr error
	for m, s := range g.members {
		res, err := s.Finish()
		if err != nil && firstErr == nil {
			firstErr = memberErr(len(g.members), m, err)
		}
		results[m] = res // nil when err is set
	}
	return results, firstErr
}

// RunGang executes one simulation per member through Run, in member
// order, so a gang holds one machine at a time: member m's machine is
// finished and back in the pool before member m+1 opens, which then
// usually runs on it. Each Result is bit-identical to Run's
// (test-enforced). All
// members must share one cycle budget and warm-up length (gang batching
// groups jobs that way).
func RunGang(opts []Options) ([]*Result, error) {
	if len(opts) == 0 {
		return nil, fmt.Errorf("sim: empty gang")
	}
	for i, o := range opts {
		if o.Cycles == 0 {
			return nil, memberErr(len(opts), i, fmt.Errorf("sim: zero cycle budget"))
		}
		if o.Cycles != opts[0].Cycles || o.Warmup != opts[0].Warmup {
			return nil, fmt.Errorf("sim: gang member %d budget (%d cycles, %d warmup) differs from member 0 (%d, %d); gangs run one lockstep window",
				i, o.Cycles, o.Warmup, opts[0].Cycles, opts[0].Warmup)
		}
	}
	results := make([]*Result, len(opts))
	for m, o := range opts {
		res, err := Run(o)
		if err != nil {
			return nil, memberErr(len(opts), m, err)
		}
		results[m] = res
	}
	return results, nil
}
