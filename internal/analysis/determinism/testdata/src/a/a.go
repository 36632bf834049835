// Package a exercises the determinism analyzer: wall-clock reads,
// global math/rand, crypto/rand, goroutines, and map iterations whose
// order escapes.
package a

import (
	crand "crypto/rand"
	"fmt"
	mrand "math/rand"
	"sort"
	"strings"
	"time"
)

func wallClock() time.Duration {
	t := time.Now()         // want `wall-clock time.Now in simulator core`
	time.Sleep(time.Second) // want `wall-clock time.Sleep in simulator core`
	return time.Since(t)    // want `wall-clock time.Since in simulator core`
}

func wallClockOK(a, b time.Time) time.Duration {
	return b.Sub(a) // a method on a value: fine
}

func globalRand() int {
	mrand.Shuffle(3, func(i, j int) {}) // want `global rand.Shuffle draws from the shared process-wide source`
	return mrand.Intn(4)                // want `global rand.Intn draws from the shared process-wide source`
}

func seededRandOK() int {
	r := mrand.New(mrand.NewSource(1))
	return r.Intn(4) // explicitly seeded: a function of the seed
}

func cryptoRand(b []byte) {
	crand.Read(b) // want `crypto/rand.Read in simulator core`
}

func spawn() {
	go func() {}() // want `go statement in simulator core`
}

func escapesPrint(m map[string]int) {
	for k := range m {
		fmt.Println(k) // want `map iteration order escapes via fmt.Println`
	}
}

func escapesWriter(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want `map iteration order escapes via a WriteString call`
	}
	return b.String()
}

func escapesSend(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want `map iteration order escapes via a channel send`
	}
}

func escapesAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `map iteration order escapes via append to keys, which is never sorted`
	}
	return keys
}

func sortedAppendOK(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func orderOK(m map[string]int, ch chan string) {
	//mflush:order-ok
	for k := range m {
		ch <- k
	}
}

func commutativeOK(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v // accumulation into a local is order-insensitive
	}
	return total
}
