//go:build !faultpoint

// Package faultpoint injects crashes at named points in the code under
// test. In ordinary builds (this file) every hook is a constant no-op
// the compiler inlines away, so threading a faultpoint through a
// production path — the cluster WAL's append/fsync/compact, the lease
// and ack paths — costs nothing. Building with `-tags faultpoint` swaps
// in the real registry: points are armed either programmatically (Set,
// from in-process tests) or through the MFLUSH_FAULTPOINTS environment
// variable (for real binaries, the crash matrix in internal/crashtest),
// and an armed hit SIGKILLs the process mid-operation.
//
// The arming syntax, shared by Set and MFLUSH_FAULTPOINTS (which holds
// a semicolon-separated list of name=action pairs):
//
//	crash        SIGKILL the process at the point
//	crash@N      SIGKILL on the Nth hit (1-based), so earlier hits pass
package faultpoint

// Active reports whether the named point would fire on its next hit.
// Production code uses it to guard extra work a firing point needs
// prepared (e.g. tearing a write in half before crashing); in ordinary
// builds it is constant false, so the guarded branch is eliminated.
//
//mflush:hotpath-ok
func Active(string) bool { return false }

// Hit marks the named point. In ordinary builds it does nothing; with
// the faultpoint tag it crashes when the point is armed.
//
//mflush:hotpath-ok
func Hit(string) {}

// Enabled reports whether fault injection is compiled in at all — false
// here; the crash matrix uses it to refuse running against a binary
// that cannot crash.
func Enabled() bool { return false }
