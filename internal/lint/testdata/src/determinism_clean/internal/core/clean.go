// Package core is a known-clean determinism fixture: all time is
// logical and all dispatch is deterministic.
package core

// Tick advances logical time deterministically.
func Tick(now int64) int64 { return now + 1 }

// Drain reads one channel with a single-case select, which is allowed.
func Drain(c chan int) int {
	select {
	case v := <-c:
		return v
	}
}

// Sum walks a per-user table in index order and looks a map up by key,
// neither of which depends on map iteration order.
func Sum(table [64]int, ids []int, extra map[int]int) int {
	t := 0
	for u, v := range table {
		t += u * v
	}
	for _, id := range ids {
		t += extra[id]
	}
	return t
}
