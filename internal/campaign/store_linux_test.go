package campaign

import (
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

// limitFileSize lowers this process's RLIMIT_FSIZE soft limit to n
// bytes, so a write that would grow any file past n is cut short with
// EFBIG (the Go runtime ignores the accompanying SIGXFSZ). The returned
// func restores the old limit; t.Cleanup also restores it. Callers must
// not run in parallel with other tests, since the limit is process-wide.
func limitFileSize(t *testing.T, n int64) (restore func()) {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	if old.Cur < uint64(n) {
		t.Skipf("RLIMIT_FSIZE is already %d bytes", old.Cur)
	}
	lowered := old
	lowered.Cur = uint64(n)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lowered); err != nil {
		t.Fatal(err)
	}
	restore = func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(restore)
	return restore
}

// TestStoreFailedAppendLeavesNoFragment: an Append that the disk cuts
// short must not leave its partial line behind, or the next good Append
// lands after that fragment and the file no longer reopens.
func TestStoreFailedAppendLeavesNoFragment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(testRecord("k1", "2W1", "ICOUNT", 1, 1.5)); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	restore := limitFileSize(t, fi.Size()+10)
	if err := s.Append(testRecord("k2", "2W1", "MFLUSH", 1, 1.8)); err == nil {
		t.Fatal("Append past RLIMIT_FSIZE succeeded")
	}
	restore()
	if err := s.Append(testRecord("k3", "2W1", "MFLUSH", 2, 1.9)); err != nil {
		t.Fatal(err)
	}
	if rec, ok := s.Get("k3"); !ok || rec.Seed != 2 {
		t.Fatalf("Get(k3) after the failed append = %+v, %v", rec, ok)
	}
	s.Close()

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatalf("store does not reopen after a failed append: %v", err)
	}
	defer s2.Close()
	if got, want := s2.Keys(), []string{"k1", "k3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened keys = %v, want %v", got, want)
	}
}
