package campaign

import "fmt"

// Gang batching groups campaign jobs into batches that one GangRunner
// call (sim.RunGang by default) executes; only Scheduler.GangWidth asks
// for it. A batch must share one cycle window and one machine point —
// workload, cycle budget, warm-up, sampling interval and tweak content —
// while members differ freely in policy and seed: exactly the shape a
// spec's cartesian expansion produces in long runs (Jobs orders
// workload-major, then policy, then tweak, then seed). Batching changes
// only how jobs execute, never what they are: job keys, record contents
// and store/wire forms are untouched, which the grouping fuzz target and
// the scheduler bit-identity tests enforce.

// GangKey names the gang batch a job is compatible with. Jobs with
// equal gang keys may run as members of one gang; the key spans
// everything members must share (window, workload, machine point) and
// deliberately omits what they may vary (policy, seed). Trace jobs key
// on their content digest (Job.workloadID), so they batch only with
// replays of the byte-identical scenario — never with synthetic jobs.
func (j Job) GangKey() string {
	return fmt.Sprintf("w=%s cycles=%d warmup=%d interval=%d %s",
		j.workloadID(), j.Cycles, j.Warmup, j.Interval, j.Tweak.canon())
}

// GangGroups partitions the jobs into execution groups of at most width
// members, each group gang-compatible (one GangKey). Groups are greedy
// over the input order: a job joins its key's open batch, a full batch
// is sealed, and leftovers seal at the end in first-opened order — so
// the result is deterministic in the input, every input index appears in
// exactly one group, and jobs are never reordered within a group. A
// width below 2 (no ganging) yields one singleton group per job, in
// input order.
func GangGroups(jobs []Job, width int) [][]int {
	var groups [][]int
	if width < 2 {
		for i := range jobs {
			groups = append(groups, []int{i})
		}
		return groups
	}
	open := make(map[string][]int)
	var keyOrder []string
	for i, j := range jobs {
		k := j.GangKey()
		if _, ok := open[k]; !ok {
			keyOrder = append(keyOrder, k)
		}
		open[k] = append(open[k], i)
		if len(open[k]) == width {
			groups = append(groups, open[k])
			open[k] = nil
		}
	}
	for _, k := range keyOrder {
		if len(open[k]) > 0 {
			groups = append(groups, open[k])
		}
	}
	return groups
}
