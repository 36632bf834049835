//go:build faultpoint

package faultpoint

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

var (
	mu sync.Mutex
	// armed maps each armed point to the hit it crashes on (1-based; 0
	// means every hit); counts holds each armed point's hits so far.
	armed  map[string]int
	counts map[string]int
)

// init arms every point listed in MFLUSH_FAULTPOINTS, so a real binary
// built with this tag is driven purely by its environment.
func init() {
	armed = make(map[string]int)
	counts = make(map[string]int)
	env := os.Getenv("MFLUSH_FAULTPOINTS")
	if env == "" {
		return
	}
	for _, pair := range strings.Split(env, ";") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, spec, ok := strings.Cut(pair, "=")
		if !ok {
			panic(fmt.Sprintf("faultpoint: MFLUSH_FAULTPOINTS entry %q is not name=action", pair))
		}
		if err := Set(name, spec); err != nil {
			panic(err)
		}
	}
}

// Set arms the named point with an action spec (see the package comment
// for the syntax). An empty spec disarms the point.
func Set(name, spec string) error {
	mu.Lock()
	defer mu.Unlock()
	if spec == "" {
		delete(armed, name)
		delete(counts, name)
		return nil
	}
	nth, err := parse(spec)
	if err != nil {
		return fmt.Errorf("faultpoint: %s: %w", name, err)
	}
	armed[name] = nth
	counts[name] = 0
	return nil
}

// parse decodes one action spec into the hit it fires on (0: every
// hit).
func parse(spec string) (int, error) {
	kind, nth, counted := strings.Cut(spec, "@")
	if kind != "crash" {
		return 0, fmt.Errorf("unknown action %q", kind)
	}
	if !counted {
		return 0, nil
	}
	n, err := strconv.Atoi(nth)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad hit count %q", nth)
	}
	return n, nil
}

// Active reports whether the named point would fire on its next hit,
// without consuming a hit — the guard production code uses to prepare a
// firing point's extra work (like tearing a write) before calling Hit.
func Active(name string) bool {
	mu.Lock()
	defer mu.Unlock()
	nth, ok := armed[name]
	return ok && (nth == 0 || counts[name]+1 == nth)
}

// Hit marks the named point and crashes if it is armed for this hit. A
// crash is a SIGKILL of the whole process — no deferred functions, no
// flushes — exactly the failure the WAL must survive.
func Hit(name string) {
	mu.Lock()
	nth, ok := armed[name]
	if ok {
		counts[name]++
		ok = nth == 0 || counts[name] == nth
	}
	mu.Unlock()
	if ok {
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // SIGKILL is not synchronous; never execute past the point
	}
}

// Enabled reports that fault injection is compiled in.
func Enabled() bool { return true }
