// Package sched implements OSU-MAC's slot scheduling (paper §3.5): the
// round-robin reverse-channel scheduler with post-pass lumping, simpler
// alternatives used for ablation benchmarks, and the forward-channel
// assigner that honours the half-duplex and two-control-field
// constraints.
package sched

import (
	"slices"
	"sort"
	"time"

	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
)

// Request is one subscriber's demand for reverse data slots in the next
// notification cycle, aggregated from explicit reservations, piggyback
// bits and contention-slot data.
type Request struct {
	// User identifies the subscriber.
	User frame.UserID
	// Slots is the number of data slots requested (≥1).
	Slots int
	// Arrival orders requests for FCFS scheduling; lower is earlier.
	Arrival int
}

// ReverseScheduler assigns reverse data slots to requests.
type ReverseScheduler interface {
	// Schedule fills the available slot positions with user IDs. avail
	// lists the assignable slot indices in time order (contention slots
	// are excluded by the caller). The result is parallel to avail;
	// frame.NoUser marks a slot left unassigned. The caller may reuse
	// requests once Schedule returns.
	Schedule(requests []Request, avail int) []frame.UserID
	// Name identifies the scheduler in experiment output.
	Name() string
}

// RoundRobin is the paper's scheduler: it serves one slot per requesting
// user per round, resuming after the last-served user of the previous
// cycle, then lumps each user's slots into a contiguous run so the
// subscriber does not repeatedly switch between transmitting and
// receiving within the cycle (paper §3.5).
type RoundRobin struct {
	// Lump enables the consolidation pass. NewRoundRobin turns it on;
	// the ablation bench clears it.
	Lump bool

	lastServed frame.UserID
	haveLast   bool
}

var _ ReverseScheduler = (*RoundRobin)(nil)

// NewRoundRobin returns the paper's configuration (lumping enabled).
func NewRoundRobin() *RoundRobin {
	return &RoundRobin{Lump: true}
}

// Name implements ReverseScheduler.
func (r *RoundRobin) Name() string {
	if r.Lump {
		return "round-robin+lump"
	}
	return "round-robin"
}

// Schedule implements ReverseScheduler.
func (r *RoundRobin) Schedule(requests []Request, avail int) []frame.UserID {
	out := unassigned(avail)
	d := dedupe(requests)
	if d.users == 0 || avail == 0 {
		return out
	}

	// Resume the rotation after the last-served user: the users above it,
	// then the rest, each part in ascending ID order.
	var upToLast frame.UserSet
	if r.haveLast {
		upToLast = 2<<r.lastServed - 1
	}
	var buf [frame.UserIDs]frame.UserID
	users := (d.users &^ upToLast).AppendTo(buf[:0])
	users = (d.users & upToLast).AppendTo(users)

	// Round-robin allocation: one slot per user with remaining demand.
	// Every user wants at least one slot, so the first round serves a
	// prefix of the rotation; that prefix drives lumping.
	var counts [frame.UserIDs]int
	order := users[:min(len(users), avail)]
	allocated := 0
	for allocated < avail {
		progress := false
		for n := 0; n < len(users) && allocated < avail; n++ {
			u := users[n]
			if d.slots[u] == 0 {
				continue
			}
			counts[u]++
			d.slots[u]--
			allocated++
			r.lastServed = u
			r.haveLast = true
			progress = true
		}
		if !progress {
			break
		}
	}

	if r.Lump {
		pos := 0
		for _, u := range order {
			for n := 0; n < counts[u]; n++ {
				out[pos] = u
				pos++
			}
		}
		return out
	}

	// Unlumped: emit in raw round-robin order.
	remaining := counts
	pos := 0
	for pos < allocated {
		for n := 0; n < len(order) && pos < allocated; n++ {
			u := order[n]
			if remaining[u] == 0 {
				continue
			}
			out[pos] = u
			remaining[u]--
			pos++
		}
	}
	return out
}

// FCFS serves requests strictly in arrival order until slots run out.
// Used as an ablation baseline: it can starve users under load.
type FCFS struct{}

var _ ReverseScheduler = FCFS{}

// Name implements ReverseScheduler.
func (FCFS) Name() string { return "fcfs" }

// Schedule implements ReverseScheduler.
func (FCFS) Schedule(requests []Request, avail int) []frame.UserID {
	out := unassigned(avail)
	reqs := make([]Request, len(requests))
	copy(reqs, requests)
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	pos := 0
	for _, req := range reqs {
		for n := 0; n < req.Slots && pos < avail; n++ {
			out[pos] = req.User
			pos++
		}
	}
	return out
}

// LongestQueueFirst gives all slots to the largest demands first — a
// throughput-greedy ablation baseline with poor fairness.
type LongestQueueFirst struct{}

var _ ReverseScheduler = LongestQueueFirst{}

// Name implements ReverseScheduler.
func (LongestQueueFirst) Name() string { return "longest-queue-first" }

// Schedule implements ReverseScheduler.
func (LongestQueueFirst) Schedule(requests []Request, avail int) []frame.UserID {
	out := unassigned(avail)
	d := dedupe(requests)
	var buf [frame.UserIDs]frame.UserID
	users := d.users.AppendTo(buf[:0])
	// Largest demand first; the stable sort keeps ties in ID order.
	slices.SortStableFunc(users, func(a, b frame.UserID) int { return d.slots[b] - d.slots[a] })
	pos := 0
	for _, u := range users {
		for n := 0; n < d.slots[u] && pos < avail; n++ {
			out[pos] = u
			pos++
		}
	}
	return out
}

// unassigned returns a slot vector of all frame.NoUser.
func unassigned(n int) []frame.UserID {
	out := make([]frame.UserID, n)
	for i := range out {
		out[i] = frame.NoUser
	}
	return out
}

// demand is the slots wanted per user; users holds the IDs wanting any.
type demand struct {
	users frame.UserSet
	slots [frame.UserIDs]int
}

// dedupe merges duplicate per-user requests, summing demands. Requests
// for no slots or for an unassignable ID are dropped.
func dedupe(requests []Request) (d demand) {
	for _, req := range requests {
		if req.Slots > 0 && req.User.Valid() {
			d.users.Add(req.User)
			d.slots[req.User] += req.Slots
		}
	}
	return d
}

// Lumped reports whether each user's slots form a single contiguous run
// in the schedule (unassigned slots are transparent): no A…B…A pattern.
func Lumped(schedule []frame.UserID) bool {
	var finished [256]bool // every uint8 ID, not only the 6-bit ones
	var current frame.UserID = frame.NoUser
	for _, u := range schedule {
		if u == frame.NoUser {
			continue
		}
		if u == current {
			continue
		}
		if finished[u] {
			return false
		}
		if current != frame.NoUser {
			finished[current] = true
		}
		current = u
	}
	return true
}

// ForwardConstraints carries what the forward assigner must respect for
// one cycle.
type ForwardConstraints struct {
	// SlotIntervals are the forward data slots' air times, in slot-index
	// order, relative to the forward cycle start.
	SlotIntervals []phy.Interval
	// TxIntervals[u] lists user u's reverse-channel transmit intervals
	// this cycle (same time origin).
	TxIntervals [frame.UserIDs][]phy.Interval
	// CF2User is the subscriber listening to the second control-field
	// set; it must not receive forward slot 0 (paper §3.4 problem 1).
	// frame.NoUser when the last reverse slot is unassigned.
	CF2User frame.UserID
	// Switch overrides the half-duplex switch guard; zero means the
	// default 20 ms.
	Switch time.Duration
}

// AssignForward fills forward data slots round-robin across users with
// forward demand, skipping slots that would violate the half-duplex
// constraint against the user's reverse transmissions or the CF2 rule.
// demands maps user → queued forward packets. Returns the slot → user
// vector (frame.NoUser = idle).
func AssignForward(demands []Request, c ForwardConstraints) []frame.UserID {
	out := unassigned(len(c.SlotIntervals))
	d := dedupe(demands)
	var buf [frame.UserIDs]frame.UserID
	users := d.users.AppendTo(buf[:0])

	var plans [frame.UserIDs]phy.HalfDuplexPlan
	for _, u := range users {
		plans[u].Switch = c.Switch
		for _, iv := range c.TxIntervals[u] {
			if err := plans[u].AddTransmit(iv); err != nil {
				// Overlapping reverse slots for one user would be a
				// scheduling bug upstream; treat the user as
				// unschedulable this cycle.
				d.slots[u] = 0
				break
			}
		}
	}

	for slot, iv := range c.SlotIntervals {
		for n, u := range users {
			if d.slots[u] == 0 || (slot == 0 && u == c.CF2User) || !plans[u].CanReceive(iv) {
				continue
			}
			if err := plans[u].AddReceive(iv); err != nil {
				continue
			}
			out[slot] = u
			d.slots[u]--
			// Rotate fairness: move the served user to the back.
			copy(users[n:], users[n+1:])
			users[len(users)-1] = u
			break
		}
	}
	return out
}
