package sim

import "testing"

// FuzzParseSpec hammers the one policy-name parser every CLI, spec file
// and wire job goes through. Two properties: no input panics it, and
// every accepted input round-trips — ParseSpec(spec.String()) yields
// the same spec, which is what keeps campaign job keys (hashes of
// PolicySpec.String) stable however a user spelled the policy.
// The seed corpus is the exact-string cases pinned by parse_test.go.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		// Accepted spellings (TestParseSpec).
		"ICOUNT", "icount", "FLUSH-S30", "fl-s100", "FLUSH-NS", "fl-ns",
		"STALL-S50", "MFLUSH", "mflush-h4", " Icount ", "FL-S1",
		// Rejected spellings with pinned error strings
		// (TestParseSpecErrors / TestParseSpecErrorMessages).
		"", "FLUSH", "FLUSH-S", "FLUSH-S0", "FLUSH-Sx", "fl-sx",
		"STALL-S-5", "MFLUSH-H0", "MFLUSH-Hx", "banana",
		// Prefix/suffix edge shapes.
		"FL-S", "MFLUSH-H", "FLUSH-S+5", "STALL-S999999999999999999999",
		// H1 is plain MFLUSH (TestParseSpec).
		"MFLUSH-H1", "mflush-h1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted as %v, whose String %q does not re-parse: %v",
				s, spec, spec.String(), err)
		}
		if again != spec {
			t.Fatalf("round trip drift: ParseSpec(%q) = %v, but ParseSpec(%q) = %v",
				s, spec, spec.String(), again)
		}
	})
}
