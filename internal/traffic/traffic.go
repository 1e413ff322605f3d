// Package traffic generates the workloads of the paper's evaluation
// (§5): Poisson e-mail message arrivals with fixed (120 B) or uniform
// (40–500 B) sizes at data subscribers, periodic GPS location reports at
// buses, and the load-index ρ calibration that maps a target load to a
// Poisson interarrival time.
package traffic

import (
	"fmt"
	"time"

	"github.com/osu-netlab/osumac/internal/sim"
)

// SizeDist draws message sizes in bytes.
type SizeDist interface {
	// Sample returns one message size.
	Sample(rng *sim.RNG) int
	// Mean returns the expected message size.
	Mean() float64
	// Name identifies the distribution in experiment output.
	Name() string
}

// Fixed always returns the same size. The paper's fixed workload uses
// L = 120 bytes.
type Fixed struct {
	Bytes int
}

var _ SizeDist = Fixed{}

// Sample implements SizeDist.
func (f Fixed) Sample(*sim.RNG) int { return f.Bytes }

// Mean implements SizeDist.
func (f Fixed) Mean() float64 { return float64(f.Bytes) }

// Name implements SizeDist.
func (f Fixed) Name() string { return fmt.Sprintf("fixed(%dB)", f.Bytes) }

// Uniform draws sizes uniformly from [Min, Max] inclusive. The paper's
// variable workload uses 40–500 bytes (mean 270; the paper quotes an
// average of 280).
type Uniform struct {
	Min, Max int
}

var _ SizeDist = Uniform{}

// Sample implements SizeDist.
func (u Uniform) Sample(rng *sim.RNG) int {
	if u.Max <= u.Min {
		return u.Min
	}
	return rng.UniformInt(u.Min, u.Max)
}

// Mean implements SizeDist.
func (u Uniform) Mean() float64 { return float64(u.Min+u.Max) / 2 }

// Name implements SizeDist.
func (u Uniform) Name() string { return fmt.Sprintf("uniform(%d-%dB)", u.Min, u.Max) }

// Paper workload presets.
var (
	// PaperFixed is the fixed-length message workload (120 bytes).
	PaperFixed = Fixed{Bytes: 120}
	// PaperVariable is the variable-length workload (uniform 40–500 B).
	PaperVariable = Uniform{Min: 40, Max: 500}
)

// Message is one application-layer message awaiting transport.
type Message struct {
	// ID is unique per source.
	ID int
	// Bytes is the application payload size.
	Bytes int
	// CreatedAt is the virtual arrival time.
	CreatedAt time.Duration
}

// PoissonSource generates messages with exponential interarrival gaps
// and sizes from a SizeDist. It is deterministic for a given RNG.
type PoissonSource struct {
	mean time.Duration
	size SizeDist
	rng  *sim.RNG
	next int
}

// NewPoissonSource builds a source with the given mean interarrival
// time. A non-positive mean yields a source that never fires (NextGap
// returns a negative duration).
func NewPoissonSource(meanInterarrival time.Duration, size SizeDist, rng *sim.RNG) *PoissonSource {
	return &PoissonSource{mean: meanInterarrival, size: size, rng: rng}
}

// NextGap draws the gap until the next arrival, or a negative value if
// the source is disabled.
func (p *PoissonSource) NextGap() time.Duration {
	if p.mean <= 0 {
		return -1
	}
	gap := p.rng.Exp(float64(p.mean))
	return time.Duration(gap)
}

// NewMessage mints the message arriving at now.
func (p *PoissonSource) NewMessage(now time.Duration) Message {
	m := Message{ID: p.next, Bytes: p.size.Sample(p.rng), CreatedAt: now}
	p.next++
	return m
}

// MeanInterarrival returns the configured mean gap.
func (p *PoissonSource) MeanInterarrival() time.Duration { return p.mean }

// LoadIndex computes the paper's ρ for a scenario:
//
//	ρ = (bytes generated per cycle) / (bytes transportable per cycle)
//	  = (m · L̄ · cycle/T) / (d · slotPayload)
//
// where m is the number of data users, L̄ the mean message size, T the
// per-user mean interarrival time, d the data slots per cycle and
// slotPayload the usable bytes per slot.
func LoadIndex(numUsers int, meanMsgBytes float64, interarrival, cycle time.Duration, dataSlots, slotPayloadBytes int) float64 {
	if interarrival <= 0 || dataSlots <= 0 || slotPayloadBytes <= 0 {
		return 0
	}
	perCycleMsgs := float64(numUsers) * float64(cycle) / float64(interarrival)
	generated := perCycleMsgs * meanMsgBytes
	capacity := float64(dataSlots * slotPayloadBytes)
	return generated / capacity
}

// InterarrivalFor inverts LoadIndex: the per-user mean interarrival time
// T that produces load ρ (paper §5's formula for T). It returns 0 if the
// target load is non-positive.
func InterarrivalFor(load float64, numUsers int, meanMsgBytes float64, cycle time.Duration, dataSlots, slotPayloadBytes int) time.Duration {
	if load <= 0 || numUsers <= 0 {
		return 0
	}
	capacity := float64(dataSlots * slotPayloadBytes)
	t := float64(numUsers) * meanMsgBytes * float64(cycle) / (load * capacity)
	return time.Duration(t)
}

// ExpectedFragments returns E[ceil(size/payload)] for a size
// distribution — the mean MAC packets per message.
func ExpectedFragments(dist SizeDist, payload int) float64 {
	if payload <= 0 {
		return 0
	}
	switch d := dist.(type) {
	case Fixed:
		return float64(FragCount(d.Bytes, payload))
	case Uniform:
		lo, hi := d.Min, d.Max
		if hi < lo {
			hi = lo
		}
		total := 0
		for s := lo; s <= hi; s++ {
			total += FragCount(s, payload)
		}
		return float64(total) / float64(hi-lo+1)
	default:
		// Fallback: continuous approximation.
		return dist.Mean()/float64(payload) + 0.5
	}
}

// FragCount returns the number of payload-byte fragments a message of
// size bytes needs; an empty message still takes one.
func FragCount(size, payload int) int {
	if size <= 0 {
		return 1
	}
	return (size + payload - 1) / payload
}

// InterarrivalForSlots returns the per-user mean interarrival time that
// makes the fragment arrival rate equal load·dataSlots per cycle — the
// paper's ρ expressed in slot capacity (§5: the denominator is the data
// bytes the d data slots can carry).
func InterarrivalForSlots(load float64, numUsers int, dist SizeDist, payload int, cycle time.Duration, dataSlots int) time.Duration {
	if load <= 0 || numUsers <= 0 || dataSlots <= 0 {
		return 0
	}
	fragsPerMsg := ExpectedFragments(dist, payload)
	msgsPerCycle := load * float64(dataSlots) / fragsPerMsg
	t := float64(numUsers) * float64(cycle) / msgsPerCycle
	return time.Duration(t)
}

// GPSSource generates one location report per period. The paper's buses
// report every 4 seconds.
type GPSSource struct {
	period time.Duration
	next   int
}

// NewGPSSource builds a periodic source.
func NewGPSSource(period time.Duration) *GPSSource {
	return &GPSSource{period: period}
}

// Period returns the reporting period.
func (g *GPSSource) Period() time.Duration { return g.period }

// NewReport mints the next report sequence number.
func (g *GPSSource) NewReport() int {
	n := g.next
	g.next++
	return n
}
