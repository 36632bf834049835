package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The ablations quantify the design choices behind MFLUSH: the MCReg
// history depth the paper mentions as an optional extension, the STALL
// response action MFLUSH builds on, and the sensitivity of the whole
// mechanism to the per-core MSHR size (which bounds the memory-level
// parallelism a flush can disturb) and to the rename-register
// reservation (which sets how badly a blocked thread clogs its core).

// AblationRow is one policy/configuration variant measured on one
// workload.
type AblationRow struct {
	Workload string
	Variant  string
	IPC      float64
	Wasted   float64
	Flushes  uint64
}

// ablation runs every workload under every variant and returns one row
// per pair, workload-major, with variant k labelled labels[k].
func ablation(cfg Config, ws []workload.Workload, variants []sim.Options, labels []string) ([]AblationRow, error) {
	res, err := grid(cfg, ws, variants)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for i, w := range ws {
		for k, r := range res[i] {
			rows = append(rows, AblationRow{
				Workload: w.Name, Variant: labels[k],
				IPC: r.IPC, Wasted: r.WastedEnergy(), Flushes: r.Flushes,
			})
		}
	}
	return rows, nil
}

// named resolves workload names that are known to exist.
func named(names ...string) []workload.Workload {
	ws := make([]workload.Workload, len(names))
	for i, n := range names {
		ws[i], _ = workload.ByName(n)
	}
	return ws
}

// MCRegHistoryDepths are the history configurations swept by
// AblationMCRegHistory. Depth 1 is the published single-register design.
var MCRegHistoryDepths = []int{1, 2, 4, 8}

// AblationMCRegHistory evaluates MFLUSH with deeper MCReg histories
// (paper §4.1: "the MCReg registers admit more complex configurations,
// involving queues") on a contended and an uncontended workload.
func AblationMCRegHistory(cfg Config) ([]AblationRow, error) {
	var specs []sim.PolicySpec
	var labels []string
	for _, depth := range MCRegHistoryDepths {
		specs = append(specs, sim.PolicySpec{Kind: sim.MFLUSH, History: depth})
		labels = append(labels, fmt.Sprintf("MCReg history %d", depth))
	}
	return ablation(cfg, named("4W3", "8W3"), policies(specs...), labels)
}

// AblationResponseAction compares the two response actions the paper
// discusses — STALL (keep resources, stop fetching) and FLUSH (free
// resources) — plus MFLUSH, which blends them through the Preventive
// State.
func AblationResponseAction(cfg Config) ([]AblationRow, error) {
	specs := []sim.PolicySpec{
		sim.SpecICOUNT,
		sim.SpecStallS(30),
		sim.SpecFlushS(30),
		sim.SpecMFLUSH,
	}
	var labels []string
	for _, spec := range specs {
		labels = append(labels, spec.String())
	}
	return ablation(cfg, named("2W3", "8W3"), policies(specs...), labels)
}

// MSHRSizes are the per-core MSHR capacities swept by AblationMSHR.
var MSHRSizes = []int{4, 8, 16, 32}

// AblationMSHR sweeps the per-core MSHR size under MFLUSH: the MSHR bounds
// each thread's memory-level parallelism and therefore both the clog a
// blocked thread causes and the work a flush destroys.
func AblationMSHR(cfg Config) ([]AblationRow, error) {
	var variants []sim.Options
	var labels []string
	for _, size := range MSHRSizes {
		variants = append(variants, sim.Options{
			Policy: sim.SpecMFLUSH,
			Tweak:  func(c *config.Config) { c.Core.MSHREntries = size },
		})
		labels = append(labels, fmt.Sprintf("MSHR %d", size))
	}
	return ablation(cfg, named("8W3"), variants, labels)
}

// RegReserveSizes are the per-thread rename-register reservations swept by
// AblationRegReserve.
var RegReserveSizes = []int{0, 16, 24, 48, 96}

// AblationRegReserve sweeps the per-thread register reservation, the knob
// that controls how completely a blocked thread can starve its partner —
// the mechanism behind the paper's ICOUNT pathology (reserve 0 recreates a
// fully shared pool; 96 approaches a static partition).
func AblationRegReserve(cfg Config) ([]AblationRow, error) {
	var variants []sim.Options
	var labels []string
	for _, spec := range []sim.PolicySpec{sim.SpecICOUNT, sim.SpecFlushS(30)} {
		for _, reserve := range RegReserveSizes {
			variants = append(variants, sim.Options{
				Policy: spec,
				Tweak:  func(c *config.Config) { c.Core.RegReservePerThread = reserve },
			})
			labels = append(labels, fmt.Sprintf("%s reserve %d", spec, reserve))
		}
	}
	return ablation(cfg, named("2W3"), variants, labels)
}
