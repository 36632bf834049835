package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/campaign"
)

// FuzzWALReplay throws arbitrary bytes at the recovery path, as both
// snapshot and tail. The invariants under fuzzing:
//
//   - openWAL never panics: it either refuses with an error (corrupt
//     snapshot, mid-file tail corruption) or repairs and loads;
//   - a successful load is stable: the repair truncated any torn
//     fragment, so booting again from the same directory must succeed
//     and recover the identical state — replay is deterministic.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte(nil), []byte(nil))
	jobs, err := campaign.Spec{
		Workloads: []string{"2W1"}, Policies: []string{"ICOUNT", "MFLUSH"}, Seeds: []uint64{1}, Cycles: 1000,
	}.Jobs()
	if err != nil {
		f.Fatal(err)
	}
	marshal := func(recs ...walRecord) []byte {
		var out []byte
		for _, r := range recs {
			line, err := json.Marshal(r)
			if err != nil {
				f.Fatal(err)
			}
			out = append(out, line...)
			out = append(out, '\n')
		}
		return out
	}
	wireA, wireB := jobs[0].Wire(), jobs[1].Wire()
	// Older builds also logged lease grants and take-backs; replay must
	// keep accepting (and ignoring) them.
	full := append(marshal(
		walRecord{Op: opEnqueue, Job: &wireA},
		walRecord{Op: opEnqueue, Job: &wireB},
	), `{"op":"lease","key":"`+wireB.Key+`","worker":"w-1"}
{"op":"requeue","key":"`+wireB.Key+`"}
`...)
	f.Add(marshal(walRecord{Op: opEnqueue, Job: &wireA}), full)
	f.Add(full, full[:len(full)-7]) // torn tail: mid-record kill
	f.Add([]byte("{\n"), []byte(nil))
	f.Add([]byte(nil), []byte("not json\n{\"op\":\"bogus\"}\n"))

	f.Fuzz(func(t *testing.T, snap, tail []byte) {
		dir := t.TempDir()
		if len(snap) > 0 {
			if err := os.WriteFile(filepath.Join(dir, snapFile), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, walFile), tail, 0o644); err != nil {
			t.Fatal(err)
		}
		w, st, err := openWAL(dir)
		if err != nil {
			return // refused, with a precise error — acceptable for arbitrary bytes
		}
		w.close()
		w2, st2, err := openWAL(dir)
		if err != nil {
			t.Fatalf("load succeeded but the repaired log failed to reopen: %v", err)
		}
		w2.close()
		if !reflect.DeepEqual(st, st2) {
			t.Fatalf("replay is not deterministic:\nfirst  %+v\nsecond %+v", st, st2)
		}
	})
}
