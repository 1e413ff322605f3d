package core

import (
	"time"

	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/stats"
)

// Metrics aggregates everything the paper's evaluation section measures
// plus the internal counters the tests assert on. One Metrics instance
// belongs to one Network run.
type Metrics struct {
	// Cycles is the number of completed notification cycles.
	Cycles int

	// Data-plane accounting (reverse channel).
	MessagesGenerated stats.Counter
	MessagesDelivered stats.Counter
	MessagesDropped   stats.Counter // queue overflow
	BytesGenerated    stats.Counter
	BytesDelivered    stats.Counter // application payload bytes
	FragmentsSent     stats.Counter // data packets on scheduled slots
	FragmentsLost     stats.Counter // RS decode failures on data slots

	// MessageDelay is end-to-end delay (arrival → last fragment
	// received), in seconds.
	MessageDelay stats.Sample

	// Control-overhead accounting (paper Fig. 9/10).
	ReservationPackets    stats.Counter // explicit reservation packets received
	ContentionSignals     stats.Counter // contention receptions signalling demand
	PiggybackRequests     stats.Counter // implicit requests via data headers
	ContentionTx          stats.Counter // transmissions attempted in contention slots
	ContentionCollisions  stats.Counter // contention slots with ≥2 transmissions
	ContentionSlotsOpen   stats.Counter // contention slots offered
	ContentionSlotsUsed   stats.Counter // contention slots with ≥1 transmission
	ReservationLatency    stats.Sample  // seconds from demand to base receipt
	RegistrationLatency   stats.Sample  // cycles from first attempt to base receipt
	RegistrationsApproved stats.Counter
	RegistrationsFailed   stats.Counter
	PageResponses         stats.Counter // zero-slot reservations answering pages

	// Reverse-channel slot usage (paper Fig. 8a, 12a, 12b).
	DataSlotsOffered  stats.Counter // schedulable reverse data slots across cycles
	DataSlotsAssigned stats.Counter
	DataSlotsUsed     stats.Counter // carried a successfully decoded data packet
	LastSlotDataPkts  stats.Counter // data packets in the CF2-covered last slot
	ReverseDataPkts   stats.Counter // all data packets received on data slots

	// GPS service (paper §2.1 requirements).
	GPSGenerated          stats.Counter
	GPSDelivered          stats.Counter
	GPSLost               stats.Counter
	GPSAccessDelay        stats.Sample // seconds from report arrival to slot
	GPSDeadlineViolations stats.Counter

	// Control-field robustness.
	CFDecodeFailures stats.Counter
	CF2Listens       stats.Counter

	// PerUserBytes and PerUserGenerated drive Jain's fairness index
	// (paper Fig. 11), indexed by user ID. delivered marks the users
	// with a delivered fragment, even a zero-byte one.
	PerUserBytes     [frame.UserIDs]uint64
	PerUserGenerated [frame.UserIDs]uint64
	delivered        frame.UserSet

	// ForwardPktsSent / Delivered cover the forward data path.
	ForwardPktsSent      stats.Counter
	ForwardPktsDelivered stats.Counter

	// Compiled-cycle executor accounting (see compiled.go). These count
	// which execution engine drove each cycle and why the fast path
	// deactivated; they are deliberately NOT part of Snapshot, because
	// the compiled path must be observationally identical to the event
	// kernel and exported run artifacts must not differ between engines.
	CompiledCycles             stats.Counter // cycles driven by the compiled source
	CompiledFallbacks          stats.Counter // cycles whose fast path deactivated
	CompiledFallbackLoss       stats.Counter // lossy channel model present
	CompiledFallbackContention stats.Counter // a contention transmission was planned
	CompiledFallbackAmendment  stats.Counter // CF2 amended the GPS schedule
	CompiledFallbackFormat     stats.Counter // reverse format switched this cycle
	CompiledRecompiles         stats.Counter // template re-selections on format switch

	// Series holds per-cycle points when Config.CollectSeries is set.
	Series []CyclePoint
}

// CyclePoint is one notification cycle's slice of the run, recorded
// when Config.CollectSeries is enabled.
type CyclePoint struct {
	// Cycle is the notification-cycle index.
	Cycle int `json:"cycle"`
	// SlotsOffered and SlotsUsed cover the reverse data slots.
	SlotsOffered int `json:"slotsOffered"`
	SlotsUsed    int `json:"slotsUsed"`
	// MessagesDelivered completed this cycle.
	MessagesDelivered int `json:"messagesDelivered"`
	// Collisions in contention slots this cycle.
	Collisions int `json:"collisions"`
	// QueueDepth is the total pending fragments across subscribers at
	// the cycle boundary.
	QueueDepth int `json:"queueDepth"`
}

// NewMetrics returns an empty metrics bundle.
func NewMetrics() *Metrics {
	return &Metrics{}
}

// recordGenerated counts a new uplink message of user's. An ID beyond
// the per-user tables counts only toward the totals.
func (m *Metrics) recordGenerated(user frame.UserID, bytes int) {
	m.MessagesGenerated.Inc()
	m.BytesGenerated.Addn(uint64(bytes))
	if int(user) < len(m.PerUserGenerated) {
		m.PerUserGenerated[user] += uint64(bytes)
	}
}

// recordDelivered counts an uplink fragment of user's delivered for the
// first time.
func (m *Metrics) recordDelivered(user frame.UserID, bytes int) {
	m.BytesDelivered.Addn(uint64(bytes))
	m.PerUserBytes[user] += uint64(bytes)
	m.delivered.Add(user)
}

// Utilization returns the fraction of reverse data slots that carried
// data — the paper's "percentage of the available bandwidth used to
// carry data" (Fig. 8a).
func (m *Metrics) Utilization() float64 {
	return stats.Ratio(float64(m.DataSlotsUsed.Value()), float64(m.DataSlotsOffered.Value()))
}

// PayloadUtilization returns delivered application bytes over offered
// payload capacity — a stricter goodput measure that excludes headers
// and retransmitted duplicates.
func (m *Metrics) PayloadUtilization() float64 {
	capacity := float64(m.DataSlotsOffered.Value()) * float64(frame.MaxPayload)
	return stats.Ratio(float64(m.BytesDelivered.Value()), capacity)
}

// ControlOverhead returns contention-slot demand signals (explicit
// reservation packets plus data-in-contention transmissions) per data
// packet (paper Fig. 9/10 control-overhead index).
func (m *Metrics) ControlOverhead() float64 {
	return stats.Ratio(float64(m.ContentionSignals.Value()), float64(m.ReverseDataPkts.Value()))
}

// CollisionProbability returns the fraction of used contention slots
// that suffered a collision.
func (m *Metrics) CollisionProbability() float64 {
	return stats.Ratio(float64(m.ContentionCollisions.Value()), float64(m.ContentionSlotsUsed.Value()))
}

// SecondCFGain returns the fraction of reverse data packets carried by
// the last data slot — the bandwidth the second control-field set saves
// (paper Fig. 12a).
func (m *Metrics) SecondCFGain() float64 {
	return stats.Ratio(float64(m.LastSlotDataPkts.Value()), float64(m.ReverseDataPkts.Value()))
}

// MeanDataSlotsUsed returns the average data slots carrying traffic per
// cycle (paper Fig. 12b).
func (m *Metrics) MeanDataSlotsUsed() float64 {
	return stats.Ratio(float64(m.DataSlotsUsed.Value()), float64(m.Cycles))
}

// Fairness returns Jain's fairness index over per-user service ratios
// (delivered bytes / generated bytes), the bandwidth share each user
// acquires relative to its demand (paper Fig. 11). Users with no demand
// are excluded. Users are summed in ID order.
func (m *Metrics) Fairness() float64 {
	var buf [frame.UserIDs]float64
	xs := buf[:0]
	for u, gen := range m.PerUserGenerated {
		if gen > 0 {
			xs = append(xs, float64(m.PerUserBytes[u])/float64(gen))
		}
	}
	return stats.JainFairness(xs)
}

// FairnessBytes returns Jain's index over raw per-user delivered bytes,
// an alternative reading of Fig. 11 that also reflects demand imbalance.
// Every user with a delivered fragment counts.
func (m *Metrics) FairnessBytes() float64 {
	var buf [frame.UserIDs]float64
	xs := buf[:0]
	for u, bytes := range m.PerUserBytes {
		if bytes > 0 || m.delivered.Has(frame.UserID(u)) {
			xs = append(xs, float64(bytes))
		}
	}
	return stats.JainFairness(xs)
}

// MeanDelayCycles returns the mean message delay expressed in
// notification cycles (paper Fig. 8b's unit).
func (m *Metrics) MeanDelayCycles(cycle time.Duration) float64 {
	if cycle <= 0 {
		return 0
	}
	return m.MessageDelay.Mean() / cycle.Seconds()
}

// RegistrationWithin returns the fraction of received registrations that
// completed within n cycles (design targets: 80 % in 2, 99 % in 10).
func (m *Metrics) RegistrationWithin(n int) float64 {
	return m.RegistrationLatency.FractionAtMost(float64(n))
}
