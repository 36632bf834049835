// Command mflushtrace synthesises scenario trace files for the
// simulator's trace-replay path: deterministic instruction streams with
// optional per-instruction miss-latency overrides and phase markers,
// ready to drive a campaign's trace: workload axis (see CAMPAIGNS.md).
// The same flags and seed always produce a byte-identical file.
//
// Usage:
//
//	mflushtrace -mode ramp -bench mcf -n 500000 -o ramp.trace
//	mflushtrace -mode burst -bench art -lat-hi 4000 -alpha 1.3 -o burst.trace
//	mflushtrace -mode phase -bench gzip,art -segments 6 -o phases.trace
//	mflushtrace -mode mix -bench mcf,gzip -o pair.trace
//	mflushtrace -bench mcf -format mftrace -base 17179869184 -o mcf.trace
//	mflushtrace -list
//
// The mftrace line writes a legacy single-thread MFTRACE1 file of the
// raw generator stream at the historical address base.
package main

import (
	"os"

	"repro/internal/tracecli"
)

func main() {
	os.Exit(tracecli.Main("mflushtrace", os.Args[1:], os.Stdout, os.Stderr))
}
