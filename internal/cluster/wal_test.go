package cluster

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/metrics"
	"repro/internal/simtest"
)

// dispatchAsync parks a Dispatch call in a goroutine and returns the
// channel its outcome lands on. Callers that only need the job queued
// (not its result) can ignore the channel — Crash/Close releases the
// goroutine with ErrClosed.
func dispatchAsync(c *Coordinator, j campaign.Job) <-chan error {
	errs := make(chan error, 1)
	go func() {
		_, err := c.Dispatch(context.Background(), j)
		errs <- err
	}()
	return errs
}

// waitPending polls until n jobs are pending, so tests can dispatch in
// a deterministic enqueue order.
func waitPending(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	simtest.WaitFor(t, 5*time.Second, func() bool { return c.Pending() == n },
		"pending = %d, want %d", func() any { return c.Pending() }, n)
}

// writeWALFile writes records as JSONL to path, for tests that
// hand-craft log states the coordinator's own writer would not produce.
func writeWALFile(t *testing.T, path string, recs ...walRecord) {
	t.Helper()
	var buf []byte
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWALRestartResumesQueue is the golden-state test: a coordinator
// killed mid-campaign — some jobs pending, one leased, one acked —
// must reopen to exactly the pre-crash state minus the unacknowledged
// in-flight transitions: the ack survives as an orphan, the leased job
// comes back as plain pending, and the queue order is preserved.
func TestWALRestartResumesQueue(t *testing.T) {
	cfg := Config{LeaseTTL: time.Minute, StateDir: t.TempDir()}
	c1, err := OpenCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := c1.Register("w1", 4)
	if err != nil {
		t.Fatal(err)
	}
	jobs := testJobs(t, 1, 2) // 2 policies x 2 seeds = 4 jobs
	for i, j := range jobs {
		dispatchAsync(c1, j)
		waitPending(t, c1, i+1)
	}
	batch, err := c1.Lease(w.ID, 2, 0, Liveness{})
	if err != nil || len(batch) != 2 {
		t.Fatalf("lease: %v (%d jobs)", err, len(batch))
	}
	rec0 := testRecord(t, jobs[0])
	if acc, _, err := c1.Complete(w.ID, []campaign.Record{rec0}, nil); err != nil || acc != 1 {
		t.Fatalf("complete: %v (accepted %d)", err, acc)
	}
	c1.Crash()

	c2, err := OpenCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rec := c2.Recovered()

	wantKeys := []string{jobs[1].Key(), jobs[2].Key(), jobs[3].Key()}
	var gotKeys []string
	for _, wj := range rec.Jobs {
		gotKeys = append(gotKeys, wj.Key)
	}
	if !reflect.DeepEqual(gotKeys, wantKeys) {
		t.Errorf("recovered jobs = %v, want %v", gotKeys, wantKeys)
	}
	if len(rec.Orphans) != 1 || !reflect.DeepEqual(rec.Orphans[0], rec0) {
		t.Errorf("orphans = %+v, want exactly the acked record", rec.Orphans)
	}
	if got := c2.Pending(); got != 3 {
		t.Errorf("pending = %d, want 3", got)
	}
	if got := c2.Requeues(); got != 0 {
		t.Errorf("requeues = %d after restart, want 0 (leases are not logged)", got)
	}

	// The resumed queue must actually drain: a fresh worker leases the
	// three recovered jobs, completes them, and Dispatch then serves
	// every result — including the pre-crash orphan — from the durable
	// settled set.
	w2, err := c2.Register("w2", 4)
	if err != nil {
		t.Fatal(err)
	}
	batch2, err := c2.Lease(w2.ID, 8, 0, Liveness{})
	if err != nil || len(batch2) != 3 {
		t.Fatalf("lease after restart: %v (%d jobs)", err, len(batch2))
	}
	var recs []campaign.Record
	for _, wj := range batch2 {
		j, err := wj.Job()
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, testRecord(t, j))
	}
	if acc, _, err := c2.Complete(w2.ID, recs, nil); err != nil || acc != 3 {
		t.Fatalf("complete after restart: %v (accepted %d)", err, acc)
	}
	for _, j := range jobs {
		got, err := c2.Dispatch(context.Background(), j)
		if err != nil {
			t.Fatalf("dispatch settled %s: %v", j.Key(), err)
		}
		if got.Key != j.Key() {
			t.Fatalf("dispatch settled %s returned record for %s", j.Key(), got.Key)
		}
	}
}

// TestWALTornTailRepaired: a fragment with no trailing newline — the
// legal signature of a kill mid-append — is dropped on replay, keeping
// everything before it.
func TestWALTornTailRepaired(t *testing.T) {
	cfg := Config{LeaseTTL: time.Minute, StateDir: t.TempDir()}
	c1, err := OpenCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Register("w1", 1); err != nil {
		t.Fatal(err)
	}
	j := testJobs(t, 1)[0]
	dispatchAsync(c1, j)
	waitPending(t, c1, 1)
	c1.Crash()

	walPath := filepath.Join(cfg.StateDir, walFile)
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"enq`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, err := OpenCoordinator(cfg)
	if err != nil {
		t.Fatalf("torn tail not repaired: %v", err)
	}
	defer c2.Close()
	rec := c2.Recovered()
	if len(rec.Jobs) != 1 || rec.Jobs[0].Key != j.Key() {
		t.Errorf("recovered jobs = %+v, want the one enqueued job", rec.Jobs)
	}
}

// TestWALStaleTailIdempotent reopens the state a crash between a
// compaction's snapshot rename and tail truncation leaves behind: the
// tail's records predate the snapshot that already absorbed them.
// Replay must converge to the snapshot's state, not double anything.
func TestWALStaleTailIdempotent(t *testing.T) {
	jobs := testJobs(t, 1)
	wireA, wireB := jobs[0].Wire(), jobs[1].Wire()
	recB := testRecord(t, jobs[1])
	dir := t.TempDir()
	// Post-compaction snapshot: A live, B acked.
	writeWALFile(t, filepath.Join(dir, snapFile),
		walRecord{Op: opEnqueue, Job: &wireA},
		walRecord{Op: opAck, Rec: &recB},
	)
	// Stale pre-compaction tail: both enqueues and B's ack.
	writeWALFile(t, filepath.Join(dir, walFile),
		walRecord{Op: opEnqueue, Job: &wireA},
		walRecord{Op: opEnqueue, Job: &wireB},
		walRecord{Op: opAck, Rec: &recB},
	)
	c, err := OpenCoordinator(Config{LeaseTTL: time.Minute, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := c.Recovered()
	if len(rec.Jobs) != 1 || rec.Jobs[0].Key != wireA.Key {
		t.Errorf("recovered jobs = %+v, want only job A once", rec.Jobs)
	}
	if len(rec.Orphans) != 1 || !reflect.DeepEqual(rec.Orphans[0], recB) {
		t.Errorf("orphans = %+v, want exactly B's record once", rec.Orphans)
	}
}

// TestWALSnapshotCorruptionRefused: the snapshot is written atomically,
// so malformed content there is real corruption — recovery must reject
// it with a precise error, never guess.
func TestWALSnapshotCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapFile), []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenCoordinator(Config{StateDir: dir})
	if err == nil {
		t.Fatal("corrupt snapshot loaded")
	}
	for _, want := range []string{"corrupt record at byte 0", "repair or remove"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, snapFile), []byte(`{"op":"enq`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCoordinator(Config{StateDir: dir2}); err == nil || !strings.Contains(err.Error(), "unterminated record") {
		t.Errorf("torn snapshot: err = %v, want unterminated-record corruption", err)
	}
}

// TestWALCorruptTailRefused: a newline-terminated tail line that does
// not parse is not a torn write — it means the file was edited or the
// disk corrupted it, and recovery must refuse rather than drop state.
func TestWALCorruptTailRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFile), []byte("garbage line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenCoordinator(Config{StateDir: dir})
	if err == nil || !strings.Contains(err.Error(), "corrupt record at byte 0") {
		t.Errorf("corrupt tail: err = %v, want corrupt-record rejection", err)
	}
}

// TestWALCompactionPrunesPersisted: with the store vouching for every
// key, compaction should shrink the WAL to nothing — a restart then
// recovers a clean slate instead of re-serving history.
func TestWALCompactionPrunesPersisted(t *testing.T) {
	cfg := Config{
		LeaseTTL:     time.Minute,
		StateDir:     t.TempDir(),
		CompactEvery: 1, // compact on every transition
		Persisted:    func(string) bool { return true },
	}
	c1, err := OpenCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := c1.Register("w1", 4)
	if err != nil {
		t.Fatal(err)
	}
	jobs := testJobs(t, 1)
	results := make([]<-chan error, len(jobs))
	for i, j := range jobs {
		results[i] = dispatchAsync(c1, j)
		waitPending(t, c1, i+1)
	}
	batch, err := c1.Lease(w.ID, 4, 0, Liveness{})
	if err != nil || len(batch) != 2 {
		t.Fatalf("lease: %v (%d jobs)", err, len(batch))
	}
	recs := []campaign.Record{testRecord(t, jobs[0]), testRecord(t, jobs[1])}
	if _, _, err := c1.Complete(w.ID, recs, nil); err != nil {
		t.Fatal(err)
	}
	for _, ch := range results {
		if err := <-ch; err != nil {
			t.Fatalf("dispatch: %v", err)
		}
	}
	c1.Crash()

	c2, err := OpenCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rec := c2.Recovered()
	if len(rec.Jobs) != 0 || len(rec.Orphans) != 0 {
		t.Errorf("recovered %+v, want a clean slate (everything persisted)", rec)
	}
}

// TestWALCloseResumesQueue: Close (the graceful path) compacts live
// jobs into the snapshot, so even a drain that could not finish the
// campaign leaves it resumable.
func TestWALCloseResumesQueue(t *testing.T) {
	cfg := Config{LeaseTTL: time.Minute, StateDir: t.TempDir()}
	c1, err := OpenCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Register("w1", 1); err != nil {
		t.Fatal(err)
	}
	jobs := testJobs(t, 1)
	for i, j := range jobs {
		dispatchAsync(c1, j)
		waitPending(t, c1, i+1)
	}
	c1.Close()

	c2, err := OpenCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := len(c2.Recovered().Jobs); got != len(jobs) {
		t.Errorf("recovered %d jobs after Close, want %d", got, len(jobs))
	}
}

// TestOpenCoordinatorWithoutStateDir: the queue is only ever kept on
// disk, so an empty StateDir is refused rather than run in memory.
func TestOpenCoordinatorWithoutStateDir(t *testing.T) {
	c, err := OpenCoordinator(Config{LeaseTTL: time.Minute})
	if err == nil || !strings.Contains(err.Error(), "StateDir is required") {
		t.Fatalf("OpenCoordinator without a StateDir = %v, want the StateDir error", err)
	}
	if c != nil {
		t.Fatal("OpenCoordinator without a StateDir returned a coordinator")
	}
}

// TestWALConcurrentAckCompaction hammers the hottest durability race:
// with CompactEvery=1 every logged record triggers a snapshot rewrite,
// so leases, acknowledgements and compactions from several workers
// interleave as tightly as the coordinator mutex allows. Run under
// -race this is the proof that compaction never races an ack — and the
// final reopen proves no interleaving ever snapshot away a record.
func TestWALConcurrentAckCompaction(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCoordinator(Config{LeaseTTL: time.Minute, StateDir: dir, CompactEvery: 1})
	if err != nil {
		t.Fatal(err)
	}

	jobs := testJobs(t, 1, 2, 3, 4, 5, 6) // 12 jobs
	recs := make(map[string]campaign.Record, len(jobs))
	for _, j := range jobs {
		recs[j.Key()] = testRecord(t, j)
	}
	// Register the fleet first: with no live workers Dispatch refuses to
	// queue (local fallback), and this test wants everything on the wire.
	workers := make([]string, 3)
	for i := range workers {
		w, err := c.Register("racer", 2)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w.ID
	}
	done := make([]<-chan error, 0, len(jobs))
	for _, j := range jobs {
		done = append(done, dispatchAsync(c, j))
	}

	// Three workers race lease/complete until the queue is dry.
	stop := make(chan struct{})
	for _, id := range workers {
		go func(id string) {
			for {
				select {
				case <-stop:
					return
				default:
				}
				batch, err := c.Lease(id, 2, 10*time.Millisecond, Liveness{})
				if err != nil {
					return // closed
				}
				for _, wire := range batch {
					if _, _, err := c.Complete(id, []campaign.Record{recs[wire.Key]}, nil); err != nil {
						return
					}
				}
			}
		}(id)
	}

	for i, ch := range done {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("dispatch %d: %v", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("dispatch %d never completed", i)
		}
	}
	close(stop)
	c.Close()

	// Every ack must have survived the compaction storm: the next boot
	// sees all twelve results settled and nothing left to run.
	c2, err := OpenCoordinator(Config{LeaseTTL: time.Minute, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rec := c2.Recovered()
	if len(rec.Jobs) != 0 {
		t.Errorf("reopen found %d live jobs, want 0", len(rec.Jobs))
	}
	if got := len(rec.Orphans); got != len(jobs) {
		t.Errorf("reopen found %d acknowledged results, want %d", got, len(jobs))
	}
	for _, orphan := range rec.Orphans {
		if want, ok := recs[orphan.Key]; !ok || !reflect.DeepEqual(orphan, want) {
			t.Errorf("settled record %s differs after the compaction storm", orphan.Key)
		}
	}
}

// TestWALLegacyLeaseRecordsIgnored boots a state directory in the
// format older builds wrote, which logged every lease grant ("lease",
// with the holding worker) and take-back ("requeue"), also in the
// snapshot. Replay must recover the same jobs in the same order and the
// same orphans those builds did — every live job plain pending — and
// the boot compaction must rewrite the state without the lease lines.
func TestWALLegacyLeaseRecordsIgnored(t *testing.T) {
	jobs := testJobs(t, 1, 2, 3)
	a, b, c, d, e := jobs[0], jobs[1], jobs[2], jobs[3], jobs[4]
	recC, recE := testRecord(t, c), testRecord(t, e)
	raw := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	enqueue := func(j campaign.Job) string { return `{"op":"enqueue","job":` + raw(j.Wire()) + `}` }
	ack := func(rec campaign.Record) string { return `{"op":"ack","rec":` + raw(rec) + `}` }
	lease := func(j campaign.Job, worker string) string {
		return `{"op":"lease","key":"` + j.Key() + `","worker":"` + worker + `"}`
	}
	requeue := func(j campaign.Job) string { return `{"op":"requeue","key":"` + j.Key() + `"}` }
	stateDir := t.TempDir()
	write := func(name string, lines ...string) {
		if err := os.WriteFile(filepath.Join(stateDir, name), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(snapFile,
		enqueue(a), enqueue(b), lease(b, "w000001-dead"),
		enqueue(c), lease(c, "w000001-dead"), ack(recE))
	write(walFile,
		requeue(b), lease(b, "w000002-dead"), ack(recC),
		enqueue(d), lease(d, "w000002-dead"), requeue(d), lease(a, "w000002-dead"))

	cfg := Config{LeaseTTL: time.Minute, StateDir: stateDir}
	for boot := 1; boot <= 2; boot++ {
		coord, err := OpenCoordinator(cfg)
		if err != nil {
			t.Fatalf("boot %d: %v", boot, err)
		}
		rec := coord.Recovered()
		var gotKeys []string
		for _, wj := range rec.Jobs {
			gotKeys = append(gotKeys, wj.Key)
		}
		if want := []string{a.Key(), b.Key(), d.Key()}; !reflect.DeepEqual(gotKeys, want) {
			t.Errorf("boot %d: recovered jobs = %v, want %v", boot, gotKeys, want)
		}
		wantOrphans := []campaign.Record{recC, recE}
		if recE.Key < recC.Key {
			wantOrphans = []campaign.Record{recE, recC}
		}
		if !reflect.DeepEqual(rec.Orphans, wantOrphans) {
			t.Errorf("boot %d: orphans = %+v, want C's and E's records", boot, rec.Orphans)
		}
		if got := coord.Pending(); got != 3 {
			t.Errorf("boot %d: pending = %d, want 3", boot, got)
		}
		for _, name := range []string{snapFile, walFile} {
			data, err := os.ReadFile(filepath.Join(stateDir, name))
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range []string{`"op":"lease"`, `"op":"requeue"`} {
				if strings.Contains(string(data), op) {
					t.Errorf("boot %d: %s still holds %s after the boot compaction", boot, name, op)
				}
			}
		}
		coord.Close()
	}
}

// TestLeaseWritesNothingDurable: leases are memory-only. Granting a
// lease, reaping a leased worker after its TTL and deregistering a
// leased worker must leave the WAL untouched, while Dispatch and
// Complete still append.
func TestLeaseWritesNothingDurable(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCoordinator(Config{LeaseTTL: time.Minute, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)
	durable := func() (int64, float64) {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, walFile))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size(), scrapeValues(t, reg)["mflush_wal_append_seconds_count"]
	}

	var ids []string
	for _, name := range []string{"reaped", "leaver", "stayer"} {
		w, err := c.Register(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, w.ID)
	}
	reaped, leaver, stayer := ids[0], ids[1], ids[2]
	jobs := testJobs(t, 1, 2)
	for i, j := range jobs {
		dispatchAsync(c, j)
		waitPending(t, c, i+1)
	}
	size0, appends0 := durable()
	if appends0 != float64(len(jobs)) {
		t.Fatalf("WAL appends after %d dispatches = %v, want one each", len(jobs), appends0)
	}
	unchanged := func(what string) {
		t.Helper()
		if size, appends := durable(); size != size0 || appends != appends0 {
			t.Errorf("%s wrote to the WAL: %d bytes and %v appends, want %d and %v",
				what, size, appends, size0, appends0)
		}
	}

	for _, id := range []string{reaped, leaver} {
		if batch, err := c.Lease(id, 1, 0, Liveness{}); err != nil || len(batch) != 1 {
			t.Fatalf("lease: %v (%d jobs)", err, len(batch))
		}
	}
	unchanged("a lease")
	// Age the first worker past its TTL; the next call reaps it inline.
	c.mu.Lock()
	c.workers[reaped].lastSeen = time.Now().Add(-2 * time.Minute)
	c.mu.Unlock()
	if got := c.LiveWorkers(); got != 2 {
		t.Fatalf("live workers after the reap = %d, want 2", got)
	}
	unchanged("a TTL reap")
	if err := c.Deregister(leaver); err != nil {
		t.Fatal(err)
	}
	unchanged("a deregister")
	if got := c.Requeues(); got != 2 {
		t.Errorf("requeues = %d, want 2 (one expired, one forfeited)", got)
	}

	batch, err := c.Lease(stayer, len(jobs), 0, Liveness{})
	if err != nil || len(batch) != len(jobs) {
		t.Fatalf("lease the requeued jobs: %v (%d jobs)", err, len(batch))
	}
	var recs []campaign.Record
	for _, wj := range batch {
		j, err := wj.Job()
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, testRecord(t, j))
	}
	if acc, _, err := c.Complete(stayer, recs, nil); err != nil || acc != len(jobs) {
		t.Fatalf("complete: %v (accepted %d)", err, acc)
	}
	if size, appends := durable(); size <= size0 || appends != appends0+1 {
		t.Errorf("Complete: %d bytes and %v appends, want more than %d bytes and %v appends",
			size, appends, size0, appends0+1)
	}
}
