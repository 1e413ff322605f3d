// Package core is a known-bad determinism fixture: it leaks wall-clock
// time, consumes ambient randomness, and races on channel selection.
package core

import (
	"math/rand"
	"time"
)

// Stamp leaks wall-clock time into the schedule.
func Stamp() int64 { return time.Now().UnixNano() }

// Jitter consumes the ambient global randomness source.
func Jitter() int { return rand.Intn(8) }

// Seeded builds an explicit generator, which is allowed.
func Seeded() *rand.Rand { return rand.New(rand.NewSource(1)) }

// Nap blocks simulation progress on the wall clock.
func Nap() { time.Sleep(time.Millisecond) }

// Deadline arms a wall-clock timer channel.
func Deadline() <-chan time.Time { return time.After(time.Second) }

// Race selects between two channels nondeterministically.
func Race(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// Allowed carries a justified suppression and must stay silent.
func Allowed() time.Time {
	//lint:ignore determinism fixture: wall clock allowed to test suppressions
	return time.Now()
}

// Malformed carries an ignore directive with no reason, which is itself
// a finding of the lintdirective pseudo-analyzer.
func Malformed() int {
	//lint:ignore determinism
	return 0
}

// Total sums a map in Go's randomized key order.
func Total(m map[int]int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}

// table is a named map type; ranging over it is still map iteration.
type table map[string]int

// Count walks a named map.
func Count(t table) int {
	n := 0
	for range t {
		n++
	}
	return n
}
