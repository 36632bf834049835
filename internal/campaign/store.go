package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/sim"
)

// Record is one completed job: its key, the cell identity the
// aggregation layer groups by, and the full simulation summary. Stores
// hold one JSON record per line.
type Record struct {
	// Key is the job's content hash (Job.Key).
	Key string `json:"key"`
	// Workload names the benchmark mix (aggregation identity).
	Workload string `json:"workload"`
	// Policy names the IFetch policy (aggregation identity).
	Policy string `json:"policy"`
	// Tweak labels the machine point (aggregation identity).
	Tweak string `json:"tweak"`
	// Seed is the synthesis seed the record was measured under.
	Seed uint64 `json:"seed"`
	// Summary is the full simulation digest.
	Summary sim.Summary `json:"summary"`
}

// Store persists campaign results as append-only JSONL keyed by job
// content hash. Opening an existing store indexes every completed record,
// which is how an interrupted campaign resumes: the scheduler skips any
// job whose key is already present. The records themselves stay on disk:
// memory holds only each key's line position, so a long-running daemon or
// sweep does not grow by a decoded Summary per result, and Get reads the
// line back. Append and Get are safe for concurrent use by scheduler
// workers.
type Store struct {
	mu sync.Mutex
	f  *os.File // append-only writer
	r  *os.File // positioned reads for Get
	// index maps each completed key to its record's line, the last one
	// when a key was appended more than once.
	index map[string]span
	// end is the file size; synced is how much of it the last fsync
	// covered (none at open).
	end, synced int64
}

// span locates one record line (without its newline) in the store file.
type span struct {
	off int64
	n   int
}

// OpenStore opens (creating if absent) the JSONL store at path. A kill
// mid-write can leave a torn final line — Append writes each record as
// one newline-terminated Write, so a torn write is exactly a fragment
// with no trailing newline — which is truncated away so the next append
// starts on a clean line boundary, costing at most the one job that was
// being written (RecoverJSONL is that discipline, shared with the
// cluster coordinator's write-ahead log). A newline-terminated line that
// fails to parse is NOT a torn write: it means the file was edited or
// corrupted, and dropping everything after it would delete completed
// work, so opening fails instead.
func OpenStore(path string) (*Store, error) {
	s := &Store{index: make(map[string]span)}
	var off int64 // RecoverJSONL hands over the lines in file order
	f, err := RecoverJSONL(path, func(line []byte) error {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" {
			return fmt.Errorf("not a store record")
		}
		s.index[rec.Key] = span{off: off, n: len(line)}
		off += int64(len(line)) + 1
		return nil
	})
	if err != nil {
		var corrupt *CorruptJSONLError
		if errors.As(err, &corrupt) {
			return nil, fmt.Errorf("campaign: store %s: corrupt record at byte %d (not a torn tail); repair or remove the file",
				path, corrupt.Offset)
		}
		return nil, fmt.Errorf("campaign: open store: %w", err)
	}
	r, err := os.Open(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: open store: %w", err)
	}
	s.f, s.r, s.end = f, r, off
	return s, nil
}

// Len returns the number of completed records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Keys returns every completed job key in sorted order — the store's
// content-addressed index (Cache.Keys serves it to the daemon's cache
// endpoint).
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Get returns the record for a job key, if completed, decoded afresh
// from its line. A line that can no longer be read back as that key's
// record (the file was changed underneath the store, or the store is
// closed) reads as absent, so the caller recomputes the job — the
// deterministic result — instead of serving a wrong one.
func (s *Store) Get(key string) (Record, bool) {
	s.mu.Lock()
	sp, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		return Record{}, false
	}
	line := make([]byte, sp.n)
	if _, err := s.r.ReadAt(line, sp.off); err != nil {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil || rec.Key != key {
		return Record{}, false
	}
	return rec, true
}

// Append persists one completed record as a single Write of one full
// line (AppendJSONL), so a kill tears at most the line in flight and a
// failed write leaves nothing behind.
func (s *Store) Append(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("campaign: marshal record: %w", err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	end, err := AppendJSONL(s.f, line, nil)
	if err != nil {
		return fmt.Errorf("campaign: append record: %w", err)
	}
	s.index[rec.Key] = span{off: end - int64(len(line)), n: len(line) - 1}
	s.end = end
	return nil
}

// Synced reports whether the record for a job key is on stable storage,
// fsyncing the file first when the key's line lies past what the last
// fsync covered. Append does not sync, so Get can see a record that a
// power loss would still take; Synced is the check to use before
// dropping any other copy of the record. It reports false for an
// unknown key and when the sync fails (for example after Close).
func (s *Store) Synced(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, ok := s.index[key]
	if !ok {
		return false
	}
	if sp.off+int64(sp.n) < s.synced {
		return true
	}
	if err := s.f.Sync(); err != nil {
		return false
	}
	s.synced = s.end
	return true
}

// Close releases the backing file handles.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rerr := s.r.Close()
	if err := s.f.Close(); err != nil {
		return err
	}
	return rerr
}
