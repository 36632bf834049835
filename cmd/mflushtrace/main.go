// Command mflushtrace synthesises scenario trace files for the
// simulator's trace-replay path: deterministic instruction streams with
// optional per-instruction miss-latency overrides and phase markers,
// ready to drive a campaign's trace: workload axis (see CAMPAIGNS.md) or
// mflushsim -traces. The same flags and seed always produce a
// byte-identical file.
//
// Usage:
//
//	mflushtrace -mode ramp -bench mcf -n 500000 -o ramp.trace
//	mflushtrace -mode burst -bench art -lat-hi 4000 -alpha 1.3 -o burst.trace
//	mflushtrace -mode phase -bench gzip,art -segments 6 -o phases.trace
//	mflushtrace -mode mix -bench mcf,gzip -format jsonl -o pair.jsonl
//	mflushtrace -list
//
// Files are MFSCEN1 binary unless -format jsonl asks for the
// hand-editable encoding.
package main

import (
	"os"

	"repro/internal/tracecli"
)

func main() {
	os.Exit(tracecli.Main("mflushtrace", os.Args[1:], os.Stdout, os.Stderr))
}
