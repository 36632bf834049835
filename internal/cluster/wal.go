package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/faultpoint"
	"repro/internal/metrics"
)

// The coordinator's write-ahead log. The coordinator appends one JSONL
// record per job transition — job enqueued, result acknowledged, job
// failed or withdrawn — fsyncing before the transition takes effect, so
// every job a caller has handed over and every result a worker has seen
// accepted survives a crash. Leases are not logged: after a restart
// every worker ID belongs to a dead epoch, so a recovered job is plain
// pending whether or not it was leased, and the lease table is rebuilt
// in memory as workers re-register. The log lives in two files under
// the state directory:
//
//	queue.snap   the last compaction: the whole queue state as a flat
//	             record list, written to a temp file and renamed into
//	             place, so it is always complete.
//	queue.wal    the tail: every transition since that compaction,
//	             appended with campaign.AppendJSONL, the same
//	             single-Write-per-batch, truncate-on-failure discipline
//	             as campaign.Store (campaign.RecoverJSONL repairs a kill
//	             mid-append by dropping the one unterminated fragment).
//
// Replay (boot) applies the snapshot, then the repaired tail, with
// idempotent semantics — re-applying a transition to a state that
// already reflects it is a no-op — because a crash between the
// compaction's snapshot rename and its tail truncation legitimately
// leaves a tail whose records the snapshot already absorbed. Compaction
// runs under the coordinator lock every CompactEvery tail records, so
// the log's size is bounded by the live queue plus one tail window.

// WAL record operations (the "op" field).
const (
	opEnqueue = "enqueue" // a job entered the queue (carries the wire job)
	opAck     = "ack"     // a result was accepted (carries the full record)
	opFail    = "fail"    // a deterministic worker-side failure settled the job
	opDequeue = "dequeue" // the job left the queue without a result (withdrawn)
)

// walRecord is one JSONL line of the log. Which fields are set depends
// on Op: enqueue carries Job; ack carries Rec; fail and dequeue carry
// Key (and Error for fail). State directories written by older builds
// also hold "lease" lines (Key plus a "worker" field that decoding
// ignores) and "requeue" lines; replay skips both.
type walRecord struct {
	Op    string            `json:"op"`
	Job   *campaign.WireJob `json:"job,omitempty"`
	Key   string            `json:"key,omitempty"`
	Rec   *campaign.Record  `json:"rec,omitempty"`
	Error string            `json:"error,omitempty"`
}

// State-directory file names.
const (
	walFile  = "queue.wal"
	snapFile = "queue.snap"
)

// wal is the open log: the append handle on the tail plus the record
// count that triggers compaction. All methods run under the owning
// coordinator's mutex.
type wal struct {
	dir      string
	tail     *os.File
	tailRecs int

	// Latency instrumentation, set by Coordinator.RegisterMetrics. Nil
	// until then — and nil metric receivers are no-ops, so the hot
	// paths observe unconditionally.
	appendH     *metrics.Histogram
	fsyncH      *metrics.Histogram
	compactH    *metrics.Histogram
	compactions *metrics.Counter
}

// openWAL opens (creating if needed) the log under dir, replays
// snapshot then repaired tail into a fresh walState, and returns both.
func openWAL(dir string) (*wal, *walState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("cluster: state dir: %w", err)
	}
	st := newWALState()

	// The snapshot is written whole and renamed into place, so unlike
	// the tail it can never hold a legal torn write: any malformed or
	// unterminated content is real corruption and refuses to load.
	snapPath := filepath.Join(dir, snapFile)
	if data, err := os.ReadFile(snapPath); err == nil {
		offset := 0
		for len(data) > offset {
			nl := bytes.IndexByte(data[offset:], '\n')
			if nl < 0 {
				return nil, nil, fmt.Errorf("cluster: wal snapshot %s: unterminated record at byte %d; the snapshot is written atomically, so this is corruption — repair or remove the state directory", snapPath, offset)
			}
			if err := applyWALLine(st, data[offset:offset+nl]); err != nil {
				return nil, nil, fmt.Errorf("cluster: wal snapshot %s: corrupt record at byte %d: %w; repair or remove the state directory", snapPath, offset, err)
			}
			offset += nl + 1
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("cluster: read wal snapshot: %w", err)
	}

	tail, err := campaign.RecoverJSONL(filepath.Join(dir, walFile), func(line []byte) error {
		return applyWALLine(st, line)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: wal: %w", err)
	}
	syncDir(dir)
	return &wal{dir: dir, tail: tail}, st, nil
}

// applyWALLine decodes one log line and applies it to st. Any error
// marks the line corrupt — replay rejects rather than guesses.
func applyWALLine(st *walState, line []byte) error {
	var rec walRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return err
	}
	return st.apply(rec)
}

// append marshals recs into one buffer and lands them with a single
// Write and a single fsync, so a kill tears at most one record and a
// batch (a worker's result post) costs one sync. A failed write or sync
// truncates the tail back to where the batch began. The transition must
// not take effect in memory until append returns nil.
func (w *wal) append(recs ...walRecord) error {
	var buf bytes.Buffer
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("cluster: wal marshal: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	faultpoint.Hit("wal.append.before")
	if faultpoint.Active("wal.append.torn") {
		// Land half the batch mid-record, then die: exactly the torn
		// tail a power loss mid-append leaves for recovery to repair.
		w.tail.Write(buf.Bytes()[:buf.Len()/2])
		w.tail.Sync()
		faultpoint.Hit("wal.append.torn")
	}
	start := time.Now()
	var wrote time.Time
	_, err := campaign.AppendJSONL(w.tail, buf.Bytes(), func() error {
		wrote = time.Now()
		w.appendH.Observe(wrote.Sub(start).Seconds())
		faultpoint.Hit("wal.sync.before")
		return w.tail.Sync()
	})
	if err != nil {
		return fmt.Errorf("cluster: wal append: %w", err)
	}
	w.fsyncH.Observe(time.Since(wrote).Seconds())
	w.tailRecs += len(recs)
	return nil
}

// compact folds the queue state into a fresh snapshot and resets the
// tail: snapshot records go to a temp file (fsynced), the temp file
// renames over queue.snap (atomic; the directory is fsynced), then the
// tail truncates. A crash at any point leaves a loadable log — before
// the rename the old snapshot+tail still replay; between rename and
// truncation the stale tail re-applies records the new snapshot already
// absorbed, which replay's idempotence makes harmless.
func (w *wal) compact(snapshot []walRecord) error {
	start := time.Now()
	var buf bytes.Buffer
	for _, r := range snapshot {
		line, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("cluster: wal compact marshal: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	tmp := filepath.Join(w.dir, snapFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("cluster: wal compact: %w", err)
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return fmt.Errorf("cluster: wal compact write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("cluster: wal compact sync: %w", err)
	}
	f.Close()
	faultpoint.Hit("wal.compact.tmp")
	if err := os.Rename(tmp, filepath.Join(w.dir, snapFile)); err != nil {
		return fmt.Errorf("cluster: wal compact rename: %w", err)
	}
	syncDir(w.dir)
	faultpoint.Hit("wal.compact.renamed")
	if err := w.tail.Truncate(0); err != nil {
		return fmt.Errorf("cluster: wal truncate tail: %w", err)
	}
	w.tail.Sync()
	w.tailRecs = 0
	w.compactH.Observe(time.Since(start).Seconds())
	w.compactions.Inc()
	return nil
}

// close releases the tail handle. Compaction-on-shutdown is the
// coordinator's business; close itself writes nothing.
func (w *wal) close() {
	w.tail.Close()
}

// syncDir fsyncs a directory so a just-created or just-renamed file's
// directory entry is durable. Best-effort: not every filesystem
// supports it, and the data writes are already synced.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
