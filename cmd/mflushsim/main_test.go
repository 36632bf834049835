package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/tracecli"
)

// TestTracesReplayScenario is the regression for -traces reading only
// legacy MFTRACE1 files: a two-thread burst scenario written by
// mflushtrace's default (MFSCEN1) encoding, its JSONL twin and the
// committed legacy fixture must each replay exactly as a campaign
// trace: job on the same file does — miss-latency overrides included.
func TestTracesReplayScenario(t *testing.T) {
	scen, err := tracecli.Synthesize(tracecli.Config{
		Mode: "burst", Benches: []string{"mcf"}, N: 1000, Threads: 2, Seed: 3, TailFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := map[string]string{
		"binary": filepath.Join(dir, "burst.scen"),
		"jsonl":  filepath.Join(dir, "burst.jsonl"),
		"legacy": filepath.Join("..", "..", "internal", "tracecli", "testdata", "mcf64.mftrace"),
	}
	for _, format := range []string{"binary", "jsonl"} {
		if err := tracecli.WriteFile(paths[format], scen, format); err != nil {
			t.Fatal(err)
		}
	}
	for name, path := range paths {
		t.Run(name, func(t *testing.T) {
			var out, errs bytes.Buffer
			if err := run([]string{"-traces", path, "-json", "-policy", "MFLUSH",
				"-cycles", "6000", "-warmup", "1000"}, &out, &errs); err != nil {
				t.Fatalf("%v\n%s", err, errs.String())
			}
			var got sim.Summary
			if err := json.Unmarshal(out.Bytes(), &got); err != nil {
				t.Fatal(err)
			}

			jobs, err := campaign.Spec{
				Workloads: []string{campaign.TracePrefix + path},
				Policies:  []string{"MFLUSH"},
				Cycles:    6000, Warmup: 1000,
			}.Jobs()
			if err != nil {
				t.Fatal(err)
			}
			rec, err := campaign.RunJob(jobs[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			want := rec.Summary
			if got.IPC != want.IPC || got.Flushes != want.Flushes || !reflect.DeepEqual(got.Committed, want.Committed) {
				t.Fatalf("mflushsim replay diverges from the campaign trace job:\n got IPC %v, %d flushes, committed %v\nwant IPC %v, %d flushes, committed %v",
					got.IPC, got.Flushes, got.Committed, want.IPC, want.Flushes, want.Committed)
			}
			if name != "legacy" && got.Flushes == 0 {
				t.Fatal("burst scenario caused no flushes; the comparison does not exercise the overrides")
			}
		})
	}
}
