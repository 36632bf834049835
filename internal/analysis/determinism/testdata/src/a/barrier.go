// This fixture file carries the retired gang-barrier-file mark: it no
// longer exempts anything, so the `go` statement below is reported like
// any other.
//
//mflush:gang-barrier-file
package a

import "sync"

func fanOut(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { wg.Done() }() // want `go statement in simulator core`
	}
	wg.Wait()
}
