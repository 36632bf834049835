// Package crashtest is the crash-recovery matrix for the durable
// coordinator queue: it builds the real mflushd and mflushworker
// binaries with fault injection compiled in (-tags faultpoint), SIGKILLs
// the daemon at each WAL and lease faultpoint in the middle of a live
// campaign, restarts it on the same state directory, and requires the
// resumed campaign to converge to results byte-identical to a run that
// was never interrupted.
//
// The tests only exist under the faultpoint build tag — `make crashtest`
// runs them; a plain `go test ./...` compiles this package to nothing,
// so the matrix never slows the ordinary suite. The matrix arms each
// point through MFLUSH_FAULTPOINTS with `crash` (the first hit) or
// `crash@N` (the Nth), the only actions internal/faultpoint provides.
package crashtest
