package experiments

import (
	"math"
	"testing"

	"repro/internal/workload"
)

// tiny is a very small configuration: experiment tests validate plumbing
// and invariants, not calibrated magnitudes (mflushbench prints those at
// full scale; its golden test pins the output at a reduced one).
var tiny = Config{Warmup: 20000, Cycles: 20000, Seed: 1}

// short shrinks the figure loops further for -short runs: still every
// figure, every policy and every workload, but a minimal measured window.
var short = Config{Warmup: 6000, Cycles: 6000, Seed: 1}

// testCfg selects the figure-test scale: tiny normally, short under
// `go test -short` so the whole package finishes in a few seconds.
func testCfg() Config {
	if testing.Short() {
		return short
	}
	return tiny
}

func TestFigure2Shape(t *testing.T) {
	rows, avg, err := Figure2(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 (2W1..2W5)", len(rows))
	}
	var sum float64
	for _, r := range rows {
		if r.ICOUNT <= 0 || r.FlushS30 <= 0 {
			t.Errorf("%s has non-positive IPC", r.Workload)
		}
		sum += r.Speedup
	}
	// The magnitude is mflushbench's to print; here avg must be the
	// mean of the per-workload speedups.
	if want := sum / float64(len(rows)); math.Abs(avg-want) > 1e-12 {
		t.Errorf("average speedup %v, want the row mean %v", avg, want)
	}
}

func TestFigure3Shape(t *testing.T) {
	rows, err := Figure3(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 sizes", len(rows))
	}
	for i, r := range rows {
		if r.Threads != workload.Sizes()[i] {
			t.Errorf("row %d threads = %d", i, r.Threads)
		}
		if r.ICOUNT <= 0 || r.FlushS30 <= 0 {
			t.Errorf("size %d has non-positive IPC", r.Threads)
		}
	}
	// More cores must give more aggregate throughput under ICOUNT.
	if rows[3].ICOUNT <= rows[0].ICOUNT {
		t.Error("8-thread ICOUNT throughput not above 2-thread")
	}
}

func TestFigure4DispersionGrows(t *testing.T) {
	rows, err := Figure4(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Hits == 0 {
			t.Fatalf("%dW measured no L2 hits", r.Threads)
		}
		var sum uint64
		for _, b := range r.Buckets {
			sum += b
		}
		if sum != r.Hits {
			t.Fatalf("%dW buckets sum %d != hits %d", r.Threads, sum, r.Hits)
		}
	}
	// The paper's observation: mean and tail grow with core count.
	if rows[3].Mean <= rows[0].Mean {
		t.Errorf("4-core mean hit time %.1f not above 1-core %.1f",
			rows[3].Mean, rows[0].Mean)
	}
	if rows[3].P90 <= rows[0].P90 {
		t.Errorf("4-core p90 %d not above 1-core %d", rows[3].P90, rows[0].P90)
	}
}

func TestFigure5Coverage(t *testing.T) {
	rows, err := Figure5(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// 2 workloads x (7 triggers + NS).
	if len(rows) != 2*(len(Figure5Triggers)+1) {
		t.Fatalf("rows = %d", len(rows))
	}
	seenNS := 0
	for _, r := range rows {
		if r.IPC <= 0 {
			t.Errorf("%s/%s has non-positive IPC", r.Workload, r.Policy)
		}
		if r.Policy == "FL-NS" {
			seenNS++
		}
	}
	if seenNS != 2 {
		t.Fatalf("FL-NS rows = %d, want 2", seenNS)
	}
}

func TestFigure8Coverage(t *testing.T) {
	rows, err := Figure8(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("rows = %d, want 15 (4W/6W/8W x 5)", len(rows))
	}
	ic, s30, s100, mf := Figure8Averages(rows)
	for name, v := range map[string]float64{
		"ICOUNT": ic, "S30": s30, "S100": s100, "MFLUSH": mf,
	} {
		if v <= 0 {
			t.Errorf("average %s IPC non-positive", name)
		}
	}
	if _, _, _, zero := Figure8Averages(nil); zero != 0 {
		t.Error("empty averages should be zero")
	}
}

func TestFigure11Coverage(t *testing.T) {
	rows, err := Figure11(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("rows = %d", len(rows))
	}
	s30, s100, mflush, saving := Figure11Averages(rows)
	if s30 <= 0 || s100 <= 0 || mflush <= 0 {
		t.Fatalf("wasted energy should be positive for flushing policies: %v/%v/%v",
			s30, s100, mflush)
	}
	// The headline direction: MFLUSH wastes less than the best static
	// trigger. (mflushbench prints the full-scale magnitude; the paper
	// reports ~20%.)
	if saving <= 0 {
		t.Errorf("MFLUSH saving vs S100 = %.1f%%, want positive", saving*100)
	}
}
