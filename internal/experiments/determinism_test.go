package experiments

import (
	"fmt"
	"runtime"
	"testing"
)

// TestFigureSpecReplayAcrossGOMAXPROCS replays Figure 2's spec through
// the campaign scheduler at GOMAXPROCS 1 and at every CPU. It guards the
// per-core recycling pools against cross-simulation sharing: the
// scheduler runs concurrent sim.Run calls, and figure values must not
// depend on how many ran in parallel.
func TestFigureSpecReplayAcrossGOMAXPROCS(t *testing.T) {
	run := func() string {
		rows, _, err := Figure2(short)
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, r := range rows {
			out += fmt.Sprintf("%s %.12f %.12f\n", r.Workload, r.ICOUNT, r.FlushS30)
		}
		return out
	}

	old := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(old)
	if old == 1 && runtime.NumCPU() > 1 {
		runtime.GOMAXPROCS(runtime.NumCPU())
		defer runtime.GOMAXPROCS(old)
	}
	parallel := run()

	if serial != parallel {
		t.Fatalf("results depend on GOMAXPROCS:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}
