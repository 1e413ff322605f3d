//go:build race

package core

// The race detector instruments sync.Pool and the allocator, so
// allocation counts measured under -race do not reflect production
// behavior; the AllocsPerRun guards skip themselves there.
const raceEnabled = true
