// Fixture for the hotpath analyzer: annotated functions may not range
// over maps, defer, call into fmt/reflect or the sort.Slice family, call
// make, start a goroutine or build a capturing closure.
package hotpath

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
)

//granulint:hotpath
func bad(m map[int]int) int {
	sum := 0
	for k := range m { // want `ranges over a map`
		sum += k
	}
	defer fmt.Println(sum) // want `uses defer` `calls fmt.Println`
	_ = reflect.TypeOf(m)  // want `calls reflect.TypeOf`
	return sum
}

// The check covers function literals declared inside the annotated
// body: they run on the same path.
//
//granulint:hotpath
func badLiteral(m map[int]int) func() int {
	return func() int { // want `builds a closure over m`
		n := 0
		for range m { // want `ranges over a map`
			n++
		}
		return n
	}
}

// sort.Slice swaps through reflect; the typed sorts do not.
//
//granulint:hotpath
func badSort(s []int) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })       // want `calls sort.Slice, which swaps through reflect` `builds a closure over s`
	sort.SliceStable(s, func(i, j int) bool { return s[i] < s[j] }) // want `calls sort.SliceStable, which swaps through reflect` `builds a closure over s`
	sort.Ints(s)
	slices.Sort(s)
	slices.SortFunc(s, func(a, b int) int { return a - b }) // captures nothing: a static function value
}

// A heap object per call: a buffer, a goroutine, a closure over the
// function's own variables.
//
//granulint:hotpath
func badAlloc(n int, done chan struct{}) []int {
	buf := make([]int, n) // want `calls make`
	go func() {           // want `starts a goroutine` `builds a closure over done`
		close(done)
	}()
	return buf
}

// Unannotated functions may do all of it.
func cold(m map[int]int) {
	defer fmt.Println("done")
	for k := range m {
		_ = k
	}
}

// Slices are fine to range over, and suppressed findings carry a
// mandatory justification.
//
//granulint:hotpath
func suppressed(s []int) int {
	sum := 0
	for _, v := range s {
		sum += v
	}
	if sum < 0 {
		//granulint:ignore hotpath cold invariant-violation branch, never taken when callers behave
		fmt.Println("negative sum")
	}
	return sum
}
