package cluster

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/campaign"
)

// walState is the queue state a WAL replay reconstructs: which jobs are
// live (enqueued, unacknowledged) in what order, and which results were
// durably acknowledged but possibly never confirmed in the result
// store. Every apply is idempotent — the same record can arrive twice
// when a crash between a compaction's snapshot rename and its tail
// truncation leaves a stale tail behind the fresh snapshot.
type walState struct {
	order []string                    // enqueue order of live job keys (may hold settled stragglers; liveOrder filters)
	jobs  map[string]campaign.WireJob // live jobs by key
	acked map[string]campaign.Record  // durably acknowledged results by key
}

func newWALState() *walState {
	return &walState{
		jobs:  make(map[string]campaign.WireJob),
		acked: make(map[string]campaign.Record),
	}
}

// apply folds one log record into the state. A malformed record — an
// enqueue with no job, an ack with no result, an op replay has never
// heard of — returns an error that fails the whole replay: the WAL is
// written by one process with no concurrent mutation, so a record that
// does not parse cleanly means corruption, and guessing around it could
// silently re-run or drop jobs.
func (s *walState) apply(r walRecord) error {
	switch r.Op {
	case opEnqueue:
		if r.Job == nil || r.Job.Key == "" {
			return errors.New("enqueue record without a job")
		}
		key := r.Job.Key
		if _, live := s.jobs[key]; live {
			return nil // replayed from a stale tail
		}
		if _, done := s.acked[key]; done {
			return nil // settled after the snapshot absorbed this enqueue
		}
		s.jobs[key] = *r.Job
		s.order = append(s.order, key)
	case "lease", "requeue":
		// Lease grants and take-backs, logged by older builds. No
		// recovery decision ever read them (a dead epoch's leases are
		// void), so they are skipped and the boot compaction drops them.
	case opAck:
		if r.Rec == nil || r.Rec.Key == "" {
			return errors.New("ack record without a result")
		}
		delete(s.jobs, r.Rec.Key)
		s.acked[r.Rec.Key] = *r.Rec
	case opFail, opDequeue:
		if r.Key == "" {
			return fmt.Errorf("%s record without a key", r.Op)
		}
		delete(s.jobs, r.Key)
	default:
		return fmt.Errorf("unknown op %q", r.Op)
	}
	return nil
}

// liveOrder returns the keys of live jobs in their original enqueue
// order.
func (s *walState) liveOrder() []string {
	keys := make([]string, 0, len(s.jobs))
	seen := make(map[string]bool, len(s.jobs))
	for _, key := range s.order {
		if _, live := s.jobs[key]; live && !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
	}
	return keys
}

// Recovery describes what OpenCoordinator restored from the write-ahead
// log in its state directory at boot. The daemon uses
// it to resume an interrupted campaign: re-dispatch Jobs, and append
// Orphans to the result store if they are missing there.
type Recovery struct {
	// Jobs are the enqueued-but-unacknowledged jobs, re-queued as plain
	// pending for dispatch in their original order — whether or not the
	// dead incarnation had leased them, since its worker IDs are void.
	Jobs []campaign.WireJob
	// Orphans are results the dead incarnation acknowledged durably (the
	// worker saw HTTP 200) but may never have written to the result
	// store. Replaying them into the store is idempotent: records are
	// keyed by content hash and byte-identical across runs.
	Orphans []campaign.Record
}

// recoveryFromState converts a replayed walState into the exported
// Recovery view, with deterministic ordering.
func recoveryFromState(st *walState) Recovery {
	var r Recovery
	for _, key := range st.liveOrder() {
		r.Jobs = append(r.Jobs, st.jobs[key])
	}
	for _, rec := range st.acked {
		r.Orphans = append(r.Orphans, rec)
	}
	sort.Slice(r.Orphans, func(i, j int) bool { return r.Orphans[i].Key < r.Orphans[j].Key })
	return r
}
