package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSpec parses a policy name into a PolicySpec. It accepts the names
// PolicySpec.String produces plus the paper's abbreviations, case
// insensitively: ICOUNT, FLUSH-S<n> (FL-S<n>), FLUSH-NS (FL-NS),
// STALL-S<n>, MFLUSH and MFLUSH-H<n>. Every CLI and campaign spec file
// parses policies through this one function, so a name accepted anywhere
// is accepted everywhere.
func ParseSpec(s string) (PolicySpec, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	switch {
	case u == "ICOUNT":
		return SpecICOUNT, nil
	case u == "FLUSH-NS" || u == "FL-NS":
		return SpecFlushNS, nil
	case u == "MFLUSH":
		return SpecMFLUSH, nil
	case strings.HasPrefix(u, "MFLUSH-H"):
		n, err := strconv.Atoi(u[len("MFLUSH-H"):])
		if err != nil || n < 1 {
			return PolicySpec{}, fmt.Errorf("bad MFLUSH history depth in %q", s)
		}
		if n == 1 {
			// The published single-register design, which String names
			// plain MFLUSH: History 1 would not round-trip.
			return SpecMFLUSH, nil
		}
		return PolicySpec{Kind: MFLUSH, History: n}, nil
	case strings.HasPrefix(u, "FLUSH-S") || strings.HasPrefix(u, "FL-S"):
		n, err := strconv.Atoi(u[strings.Index(u, "-S")+2:])
		if err != nil || n < 1 {
			return PolicySpec{}, fmt.Errorf("bad FLUSH trigger in %q", s)
		}
		return SpecFlushS(n), nil
	case strings.HasPrefix(u, "STALL-S"):
		n, err := strconv.Atoi(u[len("STALL-S"):])
		if err != nil || n < 1 {
			return PolicySpec{}, fmt.Errorf("bad STALL trigger in %q", s)
		}
		return SpecStallS(n), nil
	default:
		return PolicySpec{}, fmt.Errorf("unknown policy %q (ICOUNT, FLUSH-S<n>, FLUSH-NS, STALL-S<n>, MFLUSH, MFLUSH-H<n>)", s)
	}
}
