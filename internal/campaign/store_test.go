package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func testRecord(key, w, p string, seed uint64, ipc float64) Record {
	return Record{Key: key, Workload: w, Policy: p, Tweak: "baseline", Seed: seed,
		Summary: sim.Summary{Workload: w, Policy: p, IPC: ipc}}
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRecord("k1", "2W1", "ICOUNT", 1, 1.5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRecord("k2", "2W1", "MFLUSH", 1, 1.8)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Close()

	s, err = OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 2 {
		t.Fatalf("reopened Len = %d", s.Len())
	}
	rec, ok := s.Get("k2")
	if !ok || rec.Summary.IPC != 1.8 || rec.Policy != "MFLUSH" {
		t.Fatalf("Get(k2) = %+v, %v", rec, ok)
	}
	if _, ok := s.Get("nope"); ok {
		t.Fatal("phantom record")
	}
}

// TestStoreSynced: Synced vouches only for records it has made durable.
// An appended record is synced on demand; an unknown key is not; and a
// closed store cannot sync, so a record appended before Close but never
// synced reads as not durable rather than as safe to drop elsewhere.
func TestStoreSynced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRecord("k1", "2W1", "ICOUNT", 1, 1.5)); err != nil {
		t.Fatal(err)
	}
	if !s.Synced("k1") {
		t.Fatal("Synced(k1) = false after Append")
	}
	if s.Synced("nope") {
		t.Fatal("Synced reports an unknown key as durable")
	}
	if err := s.Append(testRecord("k2", "2W1", "MFLUSH", 1, 1.8)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if s.Synced("k2") {
		t.Fatal("Synced(k2) = true after Close, though nothing synced it")
	}

	// A reopened store has synced nothing yet; its first Synced syncs.
	s, err = OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Synced("k2") {
		t.Fatal("Synced(k2) = false on the reopened store")
	}
	s.Close()
	if s.Synced("k3") {
		t.Fatal("Synced reports an unknown key as durable after Close")
	}
}

// TestStoreReadsRecordsBack: the store keeps only line positions in
// memory, so every Get decodes the record from disk. The record must come
// back whole, a re-appended key must serve its latest line, a caller
// mutating what Get returned must not change the next Get, and a line
// changed underneath the store must read as absent, never as another
// key's record.
func TestStoreReadsRecordsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := testRecord("k1", "2W1", "ICOUNT", 1, 1.5)
	want.Summary.Counters = map[string]uint64{"l2.hits": 7, "policy.flushes": 3}
	for _, rec := range []Record{want, testRecord("k2", "2W1", "MFLUSH", 1, 1.8)} {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := s.Get("k1")
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Get(k1) = %+v, %v; want %+v", got, ok, want)
	}
	got.Summary.Counters["l2.hits"] = 0
	if again, _ := s.Get("k1"); again.Summary.Counters["l2.hits"] != 7 {
		t.Fatal("mutating a returned record changed the stored one")
	}
	want.Summary.IPC = 2.5
	if err := s.Append(want); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get("k1"); got.Summary.IPC != 2.5 || s.Len() != 2 {
		t.Fatalf("re-appended k1 serves IPC %v (Len %d), want the latest line", got.Summary.IPC, s.Len())
	}
	// Swap the file's contents for k2's line alone: k1's position now
	// points past the end and k2's at a line holding k2 no more.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if err := os.WriteFile(path, lines[1], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"k1", "k2"} {
		if rec, ok := s.Get(key); ok && rec.Key != key {
			t.Fatalf("Get(%s) served %s's record", key, rec.Key)
		}
	}
	if _, ok := s.Get("k1"); ok {
		t.Fatal("record beyond the end of the rewritten file still served")
	}
}

// TestStoreTruncatesTornTail models a campaign killed mid-write: the
// final line is incomplete and must be dropped, and a subsequent append
// must land on a clean line boundary.
func TestStoreTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRecord("k1", "2W1", "ICOUNT", 1, 1.5)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"k2","workload":"2W`) // torn mid-record
	f.Close()

	s, err = OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("torn store Len = %d, want 1", s.Len())
	}
	if _, ok := s.Get("k2"); ok {
		t.Fatal("torn record resurrected")
	}
	if err := s.Append(testRecord("k3", "2W1", "MFLUSH", 2, 2.0)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s, err = OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 2 {
		t.Fatalf("post-repair Len = %d, want 2", s.Len())
	}
	if _, ok := s.Get("k3"); !ok {
		t.Fatal("append after repair lost")
	}
}

// TestStoreRepairsTailTornInsideEscape: the nastiest torn-write shapes
// end *inside* a JSON escape sequence of the final record — after the
// backslash, mid \u hex digits, or between the surrogate halves of an
// escaped code point. A naive repair that tried to parse or "complete"
// the fragment would misread every one of them; the store's repair must
// not care, because the only invariant it relies on is the missing
// trailing newline. Also covered: a fragment that happens to be
// complete, parseable JSON but lacks the newline — still a torn write
// (the Write was cut before its last byte), still dropped.
func TestStoreRepairsTailTornInsideEscape(t *testing.T) {
	for name, fragment := range map[string]string{
		"after-backslash":       `{"key":"k9","workload":"2W1","policy":"ICOUNT","tweak":"odd \`,
		"mid-unicode-escape":    `{"key":"k9","workload":"2W1","policy":"ICOUNT","tweak":"odd \u00`,
		"between-surrogates":    `{"key":"k9","workload":"2W1","policy":"ICOUNT","tweak":"odd \ud83d\ud`,
		"escaped-quote":         `{"key":"k9","workload":"2W1","policy":"ICOUNT","tweak":"odd \"`,
		"parseable-no-newline":  `{"key":"k9","workload":"2W1","policy":"ICOUNT","tweak":"t","seed":1,"summary":{}}`,
		"escape-then-more-text": `{"key":"k9","workload":"2W1","tweak":"a\\bA still torn`,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "results.jsonl")
			s, err := OpenStore(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Append(testRecord("k1", "2W1", "ICOUNT", 1, 1.5)); err != nil {
				t.Fatal(err)
			}
			if err := s.Append(testRecord("k2", "2W1", "MFLUSH", 1, 1.8)); err != nil {
				t.Fatal(err)
			}
			s.Close()
			clean, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString(fragment)
			f.Close()

			s, err = OpenStore(path)
			if err != nil {
				t.Fatalf("repairing %s tail: %v", name, err)
			}
			if s.Len() != 2 {
				t.Fatalf("survivors = %d, want 2", s.Len())
			}
			if _, ok := s.Get("k9"); ok {
				t.Fatal("torn record resurrected")
			}
			// The repair truncated to exactly the valid prefix, and the
			// next append lands on a clean boundary.
			if err := s.Append(testRecord("k3", "2W3", "MFLUSH", 2, 2.0)); err != nil {
				t.Fatal(err)
			}
			s.Close()
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(after, clean) {
				t.Fatalf("repair rewrote the valid prefix:\n%q\nvs\n%q", after, clean)
			}
			s, err = OpenStore(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.Len() != 3 {
				t.Fatalf("post-repair Len = %d, want 3", s.Len())
			}
		})
	}
}

// TestStoreRejectsMidFileCorruption: a complete (newline-terminated)
// line that fails to parse is not a torn tail — truncating there would
// delete every valid record after it, so opening must fail instead.
func TestStoreRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range []string{"k1", "k2", "k3"} {
		if err := s.Append(testRecord(key, "2W1", "ICOUNT", uint64(i), 1.0)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[5] ^= 0xFF // flip a byte inside the first record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenStore(path)
	if err == nil {
		t.Fatal("mid-file corruption silently accepted")
	}
	// The refusal must tell the user where the damage is and that this
	// is not the (auto-repaired) torn-tail case.
	for _, want := range []string{"corrupt record at byte 0", "not a torn tail", "repair or remove"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("corruption error %q does not mention %q", err, want)
		}
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(data) {
		t.Fatalf("failed open modified the file: %d -> %d bytes", len(data), len(after))
	}
}

// TestStoreRejectsCorruptionBetweenValidLines: damage in the middle of
// the file must fail the open even though every line after it is valid —
// truncating at the damage would silently drop that completed work.
func TestStoreRejectsCorruptionBetweenValidLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range []string{"k1", "k2", "k3"} {
		if err := s.Append(testRecord(key, "2W1", "ICOUNT", uint64(i), 1.0)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("store layout: %d lines", len(lines))
	}
	// Replace the middle record with a newline-terminated non-JSON line.
	lines[1] = []byte("!! damaged by an editor !!\n")
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(path); err == nil {
		t.Fatal("middle-of-file damage with a valid tail silently accepted")
	}
}

// TestStoreRejectsKeylessRecord: a syntactically valid JSON line without
// a job key can never be matched to a job; treating it as data would
// hide the damage, so opening refuses it like any other corruption.
func TestStoreRejectsKeylessRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRecord("k1", "2W1", "ICOUNT", 1, 1.5)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"workload":"2W1","policy":"ICOUNT"}` + "\n")
	f.Close()
	if _, err := OpenStore(path); err == nil {
		t.Fatal("keyless record silently accepted")
	}
}
