package sched

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
)

func countOf(schedule []frame.UserID, u frame.UserID) int {
	n := 0
	for _, x := range schedule {
		if x == u {
			n++
		}
	}
	return n
}

func TestRoundRobinSplitsSlotsEvenly(t *testing.T) {
	rr := NewRoundRobin()
	reqs := []Request{{User: 1, Slots: 5}, {User: 2, Slots: 5}, {User: 3, Slots: 5}}
	got := rr.Schedule(reqs, 8)
	var counts [frame.UserIDs]int
	for _, u := range got {
		if u != frame.NoUser {
			counts[u]++
		}
	}
	// 8 slots across 3 users: 3-3-2 or a rotation of it.
	for _, u := range []frame.UserID{1, 2, 3} {
		if c := counts[u]; c < 2 || c > 3 {
			t.Fatalf("user %v got %d slots: %v", u, c, got)
		}
	}
	if counts[1]+counts[2]+counts[3] != 8 {
		t.Fatalf("slots unallocated despite demand: %v", got)
	}
}

func TestRoundRobinSatisfiesSmallDemand(t *testing.T) {
	rr := NewRoundRobin()
	got := rr.Schedule([]Request{{User: 7, Slots: 2}}, 8)
	if countOf(got, 7) != 2 {
		t.Fatalf("user 7 got %d slots, want 2: %v", countOf(got, 7), got)
	}
	unused := countOf(got, frame.NoUser)
	if unused != 6 {
		t.Fatalf("%d slots unassigned, want 6", unused)
	}
}

func TestRoundRobinLumping(t *testing.T) {
	rr := NewRoundRobin()
	reqs := []Request{{User: 1, Slots: 3}, {User: 2, Slots: 3}, {User: 3, Slots: 2}}
	got := rr.Schedule(reqs, 8)
	if !Lumped(got) {
		t.Fatalf("schedule not lumped: %v", got)
	}
}

func TestRoundRobinNoLumpInterleaves(t *testing.T) {
	rr := &RoundRobin{Lump: false}
	reqs := []Request{{User: 1, Slots: 4}, {User: 2, Slots: 4}}
	got := rr.Schedule(reqs, 8)
	if Lumped(got) {
		t.Fatalf("unlumped schedule unexpectedly contiguous: %v", got)
	}
	if countOf(got, 1) != 4 || countOf(got, 2) != 4 {
		t.Fatalf("allocation wrong: %v", got)
	}
}

func TestRoundRobinRotatesAcrossCycles(t *testing.T) {
	rr := NewRoundRobin()
	// One slot, three hungry users: service must rotate 1,2,3,1,…
	var served []frame.UserID
	for cycle := 0; cycle < 6; cycle++ {
		reqs := []Request{{User: 1, Slots: 1}, {User: 2, Slots: 1}, {User: 3, Slots: 1}}
		got := rr.Schedule(reqs, 1)
		served = append(served, got[0])
	}
	want := []frame.UserID{1, 2, 3, 1, 2, 3}
	for i := range want {
		if served[i] != want[i] {
			t.Fatalf("rotation = %v, want %v", served, want)
		}
	}
}

func TestRoundRobinIgnoresInvalidRequests(t *testing.T) {
	invalid := []Request{
		{User: frame.NoUser, Slots: 3},
		{User: 5, Slots: 0},
		{User: 6, Slots: -2},
		{User: 64, Slots: 2},
		{User: 255, Slots: 1},
	}
	for _, s := range []ReverseScheduler{NewRoundRobin(), &RoundRobin{}, LongestQueueFirst{}} {
		got := s.Schedule(invalid, 4)
		for _, u := range got {
			if u != frame.NoUser {
				t.Fatalf("%s scheduled an invalid request: %v", s.Name(), got)
			}
		}
	}
}

func TestRoundRobinEmpty(t *testing.T) {
	rr := NewRoundRobin()
	if got := rr.Schedule(nil, 5); countOf(got, frame.NoUser) != 5 {
		t.Fatal("no requests should leave all slots unassigned")
	}
	if got := rr.Schedule([]Request{{User: 1, Slots: 1}}, 0); len(got) != 0 {
		t.Fatal("zero slots should return empty schedule")
	}
}

func TestRoundRobinMergesDuplicateRequests(t *testing.T) {
	rr := NewRoundRobin()
	got := rr.Schedule([]Request{{User: 4, Slots: 1}, {User: 4, Slots: 2}}, 8)
	if countOf(got, 4) != 3 {
		t.Fatalf("user 4 got %d slots, want 3 (merged)", countOf(got, 4))
	}
}

func TestFCFS(t *testing.T) {
	s := FCFS{}
	reqs := []Request{
		{User: 2, Slots: 2, Arrival: 10},
		{User: 1, Slots: 3, Arrival: 5},
		{User: 3, Slots: 9, Arrival: 20},
	}
	got := s.Schedule(reqs, 6)
	want := []frame.UserID{1, 1, 1, 2, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FCFS = %v, want %v", got, want)
		}
	}
}

func TestLongestQueueFirst(t *testing.T) {
	s := LongestQueueFirst{}
	reqs := []Request{{User: 1, Slots: 1}, {User: 2, Slots: 5}, {User: 3, Slots: 2}}
	got := s.Schedule(reqs, 6)
	// User 2's five slots first, then user 3's two (truncated to 1).
	if countOf(got, 2) != 5 {
		t.Fatalf("LQF = %v", got)
	}
	if got[5] != 3 {
		t.Fatalf("LQF tail = %v, want user 3", got)
	}
	if countOf(got, 1) != 0 {
		t.Fatal("LQF should starve the small queue here")
	}
}

// permutations calls f with every ordering of reqs.
func permutations(reqs []Request, f func([]Request)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(reqs) {
			f(reqs)
			return
		}
		for i := k; i < len(reqs); i++ {
			reqs[k], reqs[i] = reqs[i], reqs[k]
			rec(k + 1)
			reqs[k], reqs[i] = reqs[i], reqs[k]
		}
	}
	rec(0)
}

// The order-insensitive schedulers must not depend on the order of the
// request list, duplicates included. FCFS is excluded: tied arrivals
// legitimately keep their input order.
func TestSchedulersIgnoreRequestOrder(t *testing.T) {
	reqs := []Request{{User: 3, Slots: 2}, {User: 1, Slots: 1}, {User: 3, Slots: 1}, {User: 7, Slots: 4}, {User: 1, Slots: 2}, {User: 2, Slots: 1}}
	slots := fwdSlots(9, 0, 90*time.Millisecond, 4*time.Millisecond)
	var tx [frame.UserIDs][]phy.Interval
	tx[3] = []phy.Interval{{Start: 100 * time.Millisecond, End: 200 * time.Millisecond}}
	run := func(reqs []Request) string {
		var out []frame.UserID
		out = append(out, NewRoundRobin().Schedule(reqs, 7)...)
		out = append(out, (&RoundRobin{}).Schedule(reqs, 7)...)
		out = append(out, LongestQueueFirst{}.Schedule(reqs, 7)...)
		out = append(out, AssignForward(reqs, ForwardConstraints{SlotIntervals: slots, TxIntervals: tx, CF2User: 1})...)
		return fmt.Sprint(out)
	}
	want := run(reqs)
	permutations(slices.Clone(reqs), func(p []Request) {
		if got := run(p); got != want {
			t.Fatalf("order %v: schedules %s, want %s", p, got, want)
		}
	})
}

func TestSchedulerNames(t *testing.T) {
	for _, s := range []ReverseScheduler{NewRoundRobin(), &RoundRobin{}, FCFS{}, LongestQueueFirst{}} {
		if s.Name() == "" {
			t.Fatalf("%T has empty name", s)
		}
	}
}

func TestLumped(t *testing.T) {
	nu := frame.NoUser
	cases := []struct {
		in   []frame.UserID
		want bool
	}{
		{[]frame.UserID{1, 1, 2, 2}, true},
		{[]frame.UserID{1, 2, 1}, false},
		{[]frame.UserID{nu, 1, 1, nu, 2}, true},
		{[]frame.UserID{1, nu, 1}, true}, // gap within one user's run is fine
		{[]frame.UserID{1, nu, 2, nu, 1}, false},
		{nil, true},
		{[]frame.UserID{nu, nu}, true},
		// IDs beyond the 6-bit space are still distinct users.
		{[]frame.UserID{64, 64, 200, 255}, true},
		{[]frame.UserID{200, 100, 200}, false},
		{[]frame.UserID{255, nu, 127, 255}, false},
		{[]frame.UserID{64, 0, 64}, false},
	}
	for _, c := range cases {
		if got := Lumped(c.in); got != c.want {
			t.Errorf("Lumped(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Property: round-robin never over-allocates, never exceeds per-user
// demand, and always lumps.
func TestPropertyRoundRobinInvariants(t *testing.T) {
	f := func(demandsRaw []uint8, availRaw uint8) bool {
		rr := NewRoundRobin()
		avail := int(availRaw % 10)
		var reqs []Request
		var demand [frame.UserIDs]int
		for i, d := range demandsRaw {
			if i >= 12 {
				break
			}
			u := frame.UserID(i)
			slots := int(d%5) + 1
			reqs = append(reqs, Request{User: u, Slots: slots})
			demand[u] += slots
		}
		got := rr.Schedule(reqs, avail)
		if len(got) != avail {
			return false
		}
		var counts [frame.UserIDs]int
		total := 0
		for _, u := range got {
			if u == frame.NoUser {
				continue
			}
			counts[u]++
			total++
		}
		for u, c := range counts {
			if c > demand[u] {
				return false
			}
		}
		// Work-conserving: slots idle only if all demand satisfied.
		totalDemand := 0
		for _, d := range demand {
			totalDemand += d
		}
		if total < avail && total < totalDemand {
			return false
		}
		return Lumped(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: round-robin per-user allocations differ by at most one slot
// when every user wants everything (max-min fairness).
func TestPropertyRoundRobinFairSplit(t *testing.T) {
	f := func(nUsersRaw, availRaw uint8) bool {
		rr := NewRoundRobin()
		nUsers := int(nUsersRaw%8) + 1
		avail := int(availRaw%10) + 1
		var reqs []Request
		for i := 0; i < nUsers; i++ {
			reqs = append(reqs, Request{User: frame.UserID(i), Slots: avail})
		}
		got := rr.Schedule(reqs, avail)
		var counts [frame.UserIDs]int
		for _, u := range got {
			if u != frame.NoUser {
				counts[u]++
			}
		}
		minC, maxC := avail+1, -1
		for i := 0; i < nUsers; i++ {
			c := counts[frame.UserID(i)]
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		return maxC-minC <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func fwdSlots(n int, start, width, gap time.Duration) []phy.Interval {
	out := make([]phy.Interval, n)
	for i := range out {
		s := start + time.Duration(i)*(width+gap)
		out[i] = phy.Interval{Start: s, End: s + width}
	}
	return out
}

func TestAssignForwardRespectsHalfDuplex(t *testing.T) {
	slots := fwdSlots(4, 0, 90*time.Millisecond, 0)
	// User 1 transmits on the reverse channel exactly during forward
	// slot 1 (and within 20 ms of slots 0 and 2).
	var tx [frame.UserIDs][]phy.Interval
	tx[1] = []phy.Interval{{Start: 95 * time.Millisecond, End: 175 * time.Millisecond}}
	got := AssignForward(
		[]Request{{User: 1, Slots: 4}},
		ForwardConstraints{SlotIntervals: slots, TxIntervals: tx, CF2User: frame.NoUser},
	)
	// Slot 0 ends at 90ms; tx starts 95ms → gap 5ms < 20ms: forbidden.
	// Slot 1 overlaps: forbidden. Slot 2 starts 180ms, tx ends 175ms →
	// gap 5ms: forbidden. Slot 3 starts 270ms: gap 95ms: allowed.
	want := []frame.UserID{frame.NoUser, frame.NoUser, frame.NoUser, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("assignment = %v, want %v", got, want)
		}
	}
}

func TestAssignForwardCF2UserSkipsFirstSlot(t *testing.T) {
	slots := fwdSlots(3, 0, 90*time.Millisecond, 10*time.Millisecond)
	got := AssignForward(
		[]Request{{User: 5, Slots: 3}},
		ForwardConstraints{SlotIntervals: slots, CF2User: 5},
	)
	if got[0] != frame.NoUser {
		t.Fatalf("CF2 user assigned forward slot 0: %v", got)
	}
	if got[1] != 5 || got[2] != 5 {
		t.Fatalf("CF2 user should get later slots: %v", got)
	}
}

func TestAssignForwardSharesAcrossUsers(t *testing.T) {
	slots := fwdSlots(4, 0, 90*time.Millisecond, 10*time.Millisecond)
	got := AssignForward(
		[]Request{{User: 1, Slots: 4}, {User: 2, Slots: 4}},
		ForwardConstraints{SlotIntervals: slots, CF2User: frame.NoUser},
	)
	if countOf(got, 1) != 2 || countOf(got, 2) != 2 {
		t.Fatalf("unfair forward split: %v", got)
	}
}

func TestAssignForwardNoDemand(t *testing.T) {
	slots := fwdSlots(2, 0, 90*time.Millisecond, 0)
	// Requests outside the 6-bit ID space are demand from nobody.
	for _, reqs := range [][]Request{nil, {{User: 64, Slots: 2}, {User: 255, Slots: 1}}} {
		got := AssignForward(reqs, ForwardConstraints{SlotIntervals: slots, CF2User: frame.NoUser})
		for _, u := range got {
			if u != frame.NoUser {
				t.Fatalf("slots assigned without demand: %v", got)
			}
		}
	}
}

// Property: forward assignment never double-books a slot, never exceeds
// demand, and every assignment is half-duplex-feasible.
func TestPropertyAssignForwardFeasible(t *testing.T) {
	f := func(txStartsRaw []uint8, demandRaw [4]uint8) bool {
		slots := fwdSlots(8, 0, 90*time.Millisecond, 4*time.Millisecond)
		var tx [frame.UserIDs][]phy.Interval
		for i, s := range txStartsRaw {
			if i >= 4 {
				break
			}
			u := frame.UserID(i)
			start := time.Duration(s) * 5 * time.Millisecond
			tx[u] = append(tx[u], phy.Interval{Start: start, End: start + 100*time.Millisecond})
		}
		var reqs []Request
		var demand [frame.UserIDs]int
		for i, d := range demandRaw {
			u := frame.UserID(i)
			n := int(d % 5)
			if n > 0 {
				reqs = append(reqs, Request{User: u, Slots: n})
				demand[u] = n
			}
		}
		got := AssignForward(reqs, ForwardConstraints{SlotIntervals: slots, TxIntervals: tx, CF2User: 0})
		var counts [frame.UserIDs]int
		for i, u := range got {
			if u == frame.NoUser {
				continue
			}
			counts[u]++
			if i == 0 && u == 0 {
				return false // CF2 rule violated
			}
			for _, txIv := range tx[u] {
				gap := txIv.Start - slots[i].End
				gap2 := slots[i].Start - txIv.End
				if slots[i].Overlaps(txIv) {
					return false
				}
				if gap < 0 && gap2 < 0 {
					return false
				}
				if gap >= 0 && gap < phy.HalfDuplexSwitch {
					return false
				}
				if gap2 >= 0 && gap2 < phy.HalfDuplexSwitch {
					return false
				}
			}
		}
		for u, c := range counts {
			if c > demand[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
