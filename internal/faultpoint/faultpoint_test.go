//go:build faultpoint

package faultpoint

import "testing"

// These tests compile only with the faultpoint tag (make crashtest runs
// them); the ordinary build's hooks are constant no-ops with nothing to
// test. A point is never hit on its armed count here: that would
// SIGKILL the test binary.

func TestActivePeeksWithoutConsuming(t *testing.T) {
	if err := Set("p", "crash@3"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { Set("p", "") })
	for hit := 1; hit <= 2; hit++ {
		if Active("p") {
			t.Fatalf("point active before hit %d, armed for hit 3", hit)
		}
		Hit("p")
	}
	if !Active("p") || !Active("p") {
		t.Fatal("point not active on its armed hit, or Active consumed it")
	}
}

func TestDisarmAndBadSpecs(t *testing.T) {
	if err := Set("p", "crash"); err != nil {
		t.Fatal(err)
	}
	if !Active("p") {
		t.Fatal("crash armed for every hit is not active")
	}
	if err := Set("p", ""); err != nil {
		t.Fatal(err)
	}
	if Active("p") {
		t.Fatal("disarmed point still active")
	}
	Hit("p") // disarmed: must not crash
	for _, bad := range []string{"explode", "crash@0", "crash@x", "delay:30ms", "error:boom"} {
		if err := Set("q", bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
	if !Enabled() {
		t.Fatal("Enabled() = false under the faultpoint tag")
	}
}
