package simtest

import (
	"testing"

	"repro/internal/sim"
)

// TestRunBoundsSamples: a fake run whose interval would yield more than
// maxSamples samples fails at once instead of growing without bound.
func TestRunBoundsSamples(t *testing.T) {
	r := New()
	if res, err := r.Run(sim.Options{Cycles: 1 << 62, Interval: 1}); err == nil {
		t.Fatalf("Run = %d samples, want an error", len(res.Samples))
	}
	res, err := r.Run(sim.Options{Cycles: maxSamples, Interval: 1})
	if err != nil || len(res.Samples) != maxSamples {
		t.Fatalf("Run at the bound = %v, %v; want %d samples", res, err, maxSamples)
	}
}
