package stats

import "testing"

// Test-local registered counters. Registration is global and permanent,
// so these names are namespaced to the test.
var (
	tidA = MustRegister("test.typed.a")
	tidB = MustRegister("test.typed.b")
)

func TestMustRegisterIdempotent(t *testing.T) {
	if again := MustRegister("test.typed.a"); again != tidA {
		t.Fatalf("re-registration returned %d, want %d", again, tidA)
	}
	if tidA == tidB {
		t.Fatal("distinct names share an ID")
	}
}

func TestGetReadsBumpedSlot(t *testing.T) {
	var s Set
	s.Bump(tidA, 3)
	s.Bump(tidA, 2)
	if got := s.Get("test.typed.a"); got != 5 {
		t.Fatalf("Get = %d, want 5", got)
	}
	if got := s.Get("test.typed.unregistered"); got != 0 {
		t.Fatalf("unregistered Get = %d, want 0", got)
	}
}

func TestTypedMerge(t *testing.T) {
	var a, b Set
	a.Bump(tidA, 1)
	b.Bump(tidA, 2)
	b.Bump(tidB, 4)
	a.Merge(&b)
	if got := a.Get("test.typed.a"); got != 3 {
		t.Fatalf("merged a = %d, want 3", got)
	}
	if got := a.Get("test.typed.b"); got != 4 {
		t.Fatalf("merged b = %d, want 4", got)
	}
}

func TestAllSkipsZeroRegistered(t *testing.T) {
	var s Set
	s.Bump(tidA, 0) // grows the dense array but records nothing
	s.Bump(tidB, 9)
	for _, c := range s.All() {
		if c.Name == "test.typed.a" {
			t.Fatal("zero-valued registered counter reported")
		}
	}
	found := false
	for _, c := range s.All() {
		if c.Name == "test.typed.b" && c.Value == 9 {
			found = true
		}
	}
	if !found {
		t.Fatal("non-zero registered counter missing from All()")
	}
}

func TestZeroValueSetBump(t *testing.T) {
	var s Set
	s.Bump(tidB, 1) // must not panic on the zero value
	if got := s.Get("test.typed.b"); got != 1 {
		t.Fatalf("Get = %d, want 1", got)
	}
}
