package cluster

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
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

// TestWALFailedAppendLeavesNoFragment: a Dispatch whose WAL append the
// disk cuts short must fail without leaving its partial record in the
// tail, so the next Dispatch's record starts on a line boundary and a
// restart recovers it.
func TestWALFailedAppendLeavesNoFragment(t *testing.T) {
	cfg := Config{LeaseTTL: time.Minute, StateDir: t.TempDir()}
	c1, err := OpenCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Register("w1", 1); err != nil {
		t.Fatal(err)
	}
	jobs := testJobs(t, 1)
	fi, err := os.Stat(filepath.Join(cfg.StateDir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	restore := limitFileSize(t, fi.Size()+10)
	if _, err := c1.Dispatch(context.Background(), jobs[0]); err == nil || errors.Is(err, ErrNoWorkers) {
		t.Fatalf("Dispatch past RLIMIT_FSIZE = %v, want the WAL append error", err)
	}
	restore()
	dispatchAsync(c1, jobs[1])
	waitPending(t, c1, 1)
	c1.Crash()

	c2, err := OpenCoordinator(cfg)
	if err != nil {
		t.Fatalf("coordinator does not reboot after a failed append: %v", err)
	}
	defer c2.Close()
	if rec := c2.Recovered(); len(rec.Jobs) != 1 || rec.Jobs[0].Key != jobs[1].Key() {
		t.Fatalf("recovered jobs = %+v, want only the second dispatch", rec.Jobs)
	}
}
