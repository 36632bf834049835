package experiments

import (
	"fmt"

	"repro/internal/campaign"
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

// runAblation runs spec and folds its records, one per workload ×
// variant in job order, into rows; variant k (a policy, or a policy and
// tweak pair) is labelled labels[k].
func runAblation(cfg Config, spec campaign.Spec, labels []string) ([]AblationRow, error) {
	recs, err := run(cfg, spec, nil)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(recs))
	for i, r := range recs {
		rows[i] = AblationRow{
			Workload: r.Workload, Variant: labels[i%len(labels)],
			IPC: r.Summary.IPC, Wasted: r.Summary.WastedEnergy, Flushes: r.Summary.Flushes,
		}
	}
	return rows, nil
}

// MCRegHistoryDepths are the history configurations swept by
// AblationMCRegHistory. Depth 1 is the published single-register design.
var MCRegHistoryDepths = []int{1, 2, 4, 8}

// AblationMCRegHistory evaluates MFLUSH with deeper MCReg histories
// (paper §4.1: "the MCReg registers admit more complex configurations,
// involving queues") on a contended and an uncontended workload.
func AblationMCRegHistory(cfg Config) ([]AblationRow, error) {
	spec := campaign.Spec{Workloads: []string{"4W3", "8W3"}}
	var labels []string
	for _, depth := range MCRegHistoryDepths {
		// MFLUSH-H1 parses as plain MFLUSH, the same policy.
		spec.Policies = append(spec.Policies, fmt.Sprintf("MFLUSH-H%d", depth))
		labels = append(labels, fmt.Sprintf("MCReg history %d", depth))
	}
	return runAblation(cfg, spec, labels)
}

// AblationResponseAction compares the two response actions the paper
// discusses — STALL (keep resources, stop fetching) and FLUSH (free
// resources) — plus MFLUSH, which blends them through the Preventive
// State.
func AblationResponseAction(cfg Config) ([]AblationRow, error) {
	policies := []string{"ICOUNT", "STALL-S30", "FLUSH-S30", "MFLUSH"}
	return runAblation(cfg, campaign.Spec{Workloads: []string{"2W3", "8W3"}, Policies: policies}, policies)
}

// MSHRSizes are the per-core MSHR capacities swept by AblationMSHR.
var MSHRSizes = []int{4, 8, 16, 32}

// AblationMSHR sweeps the per-core MSHR size under MFLUSH: the MSHR bounds
// each thread's memory-level parallelism and therefore both the clog a
// blocked thread causes and the work a flush destroys.
func AblationMSHR(cfg Config) ([]AblationRow, error) {
	spec := campaign.Spec{Workloads: []string{"8W3"}, Policies: []string{"MFLUSH"}}
	var labels []string
	for _, size := range MSHRSizes {
		label := fmt.Sprintf("MSHR %d", size)
		spec.Tweaks = append(spec.Tweaks, campaign.Tweak{Name: label, MSHREntries: size})
		labels = append(labels, label)
	}
	return runAblation(cfg, spec, labels)
}

// RegReserveSizes are the per-thread rename-register reservations swept by
// AblationRegReserve.
var RegReserveSizes = []int{0, 16, 24, 48, 96}

// AblationRegReserve sweeps the per-thread register reservation, the knob
// that controls how completely a blocked thread can starve its partner —
// the mechanism behind the paper's ICOUNT pathology (reserve 0 recreates a
// fully shared pool; 96 approaches a static partition).
func AblationRegReserve(cfg Config) ([]AblationRow, error) {
	spec := campaign.Spec{Workloads: []string{"2W3"}, Policies: []string{"ICOUNT", "FLUSH-S30"}}
	for _, reserve := range RegReserveSizes {
		spec.Tweaks = append(spec.Tweaks, campaign.Tweak{
			Name: fmt.Sprintf("reserve %d", reserve), RegReservePerThread: &reserve,
		})
	}
	var labels []string
	for _, p := range spec.Policies {
		for _, tw := range spec.Tweaks {
			labels = append(labels, p+" "+tw.Name)
		}
	}
	return runAblation(cfg, spec, labels)
}
