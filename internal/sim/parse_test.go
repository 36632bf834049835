package sim

import "testing"

func TestParseSpec(t *testing.T) {
	cases := map[string]PolicySpec{
		"ICOUNT":    SpecICOUNT,
		"icount":    SpecICOUNT,
		"FLUSH-S30": SpecFlushS(30),
		"fl-s100":   SpecFlushS(100),
		"FLUSH-NS":  SpecFlushNS,
		"fl-ns":     SpecFlushNS,
		"STALL-S50": SpecStallS(50),
		"MFLUSH":    SpecMFLUSH,
		"mflush-h4": {Kind: MFLUSH, History: 4},
		"MFLUSH-H1": SpecMFLUSH,
		"mflush-h1": SpecMFLUSH,
	}
	for in, want := range cases {
		got, err := ParseSpec(in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", in, got, want)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, in := range []string{"", "FLUSH", "FLUSH-S", "FLUSH-S0", "FLUSH-Sx",
		"STALL-S-5", "MFLUSH-H0", "MFLUSH-Hx", "banana"} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted", in)
		}
	}
}

// TestParseSpecErrorMessages pins the exact user-facing strings: they
// surface verbatim in CLI errors, campaign-spec rejections and mflushd
// 400 responses, so changing one is an interface change, not a cleanup.
func TestParseSpecErrorMessages(t *testing.T) {
	cases := map[string]string{
		"FLUSH-S0":  `bad FLUSH trigger in "FLUSH-S0"`,
		"fl-sx":     `bad FLUSH trigger in "fl-sx"`,
		"STALL-S-5": `bad STALL trigger in "STALL-S-5"`,
		"MFLUSH-H0": `bad MFLUSH history depth in "MFLUSH-H0"`,
		"MFLUSH-Hx": `bad MFLUSH history depth in "MFLUSH-Hx"`,
		"banana":    `unknown policy "banana" (ICOUNT, FLUSH-S<n>, FLUSH-NS, STALL-S<n>, MFLUSH, MFLUSH-H<n>)`,
		"":          `unknown policy "" (ICOUNT, FLUSH-S<n>, FLUSH-NS, STALL-S<n>, MFLUSH, MFLUSH-H<n>)`,
	}
	for in, want := range cases {
		_, err := ParseSpec(in)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", in)
			continue
		}
		if err.Error() != want {
			t.Errorf("ParseSpec(%q) error = %q, want %q", in, err.Error(), want)
		}
	}
}

// TestParseSpecRoundTrips guards the CLI contract: every name String()
// produces is re-parseable to the same spec.
func TestParseSpecRoundTrips(t *testing.T) {
	specs := []PolicySpec{
		SpecICOUNT, SpecFlushNS, SpecMFLUSH,
		SpecFlushS(30), SpecFlushS(100), SpecStallS(70),
		{Kind: MFLUSH, History: 4},
	}
	for _, s := range specs {
		got, err := ParseSpec(s.String())
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", s.String(), err)
			continue
		}
		if got != s {
			t.Errorf("round trip %q = %+v, want %+v", s.String(), got, s)
		}
	}
}
