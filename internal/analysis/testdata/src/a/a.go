// Package a exercises the annotations self-check: a stray //mflush:
// marker — an unknown name, or a known marker on a node kind it does
// not bind to — must surface as a diagnostic instead of silently
// enforcing nothing.
package a

import "sync"

//mflush:hotpath
func hot() {}

//mflush:hotpth // want `unknown annotation //mflush:hotpth \(known: `
func typo() {}

//mflush:gang-barrier-file // want `unknown annotation //mflush:gang-barrier-file \(known: `
func retired() {}

//mflush:hotpath // want `annotation //mflush:hotpath is not attached to a function the analyzers recognize`
type NotAFunc struct{}

//mflush:keyed // want `annotation //mflush:keyed is not attached to a struct type the analyzers recognize`
type MissingMethods struct {
	ID uint64
}

type Unkeyed struct {
	//mflush:keyed-ignore // want `annotation //mflush:keyed-ignore is not attached to a struct field the analyzers recognize`
	Label string
}

type Guarded struct {
	mu sync.Mutex
	n  int //mflush:guarded-by mu
}

//mflush:guarded-by mu // want `annotation //mflush:guarded-by is not attached to a struct field the analyzers recognize`
var notAField int

// Statement-level marks are consumed positionally; they are never
// strays, even though their attachment cannot be validated.
func looper(m map[string]int, ch chan string) {
	//mflush:order-ok
	for k := range m {
		ch <- k
	}
}
