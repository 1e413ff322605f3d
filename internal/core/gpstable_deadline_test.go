package core

import (
	"fmt"
	"testing"

	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
)

// admitN fills the table with users 1..n in order.
func admitN(t *testing.T, tbl *GPSSlotTable, n int) []frame.UserID {
	t.Helper()
	users := make([]frame.UserID, 0, n)
	for i := 0; i < n; i++ {
		u := frame.UserID(i + 1)
		if _, err := tbl.Admit(u); err != nil {
			t.Fatal(err)
		}
		users = append(users, u)
	}
	return users
}

// grants is a grant schedule inverted: the granted users, and each
// one's slot (the last, should a user appear twice).
type grants struct {
	users frame.UserSet
	slot  [frame.UserIDs]int
}

// grantedSet collects the non-empty entries of a grant schedule.
func grantedSet(s [frame.GPSScheduleEntries]frame.UserID) grants {
	var g grants
	for i, u := range s {
		if u != frame.NoUser {
			g.users.Add(u)
			g.slot[u] = i
		}
	}
	return g
}

// TestGrantScheduleServesEveryUserEveryCycle is the starvation-freedom
// table: for every (format, population) pair the protocol can reach,
// every registered user is granted exactly one slot in every cycle, in
// the first population-many entries.
func TestGrantScheduleServesEveryUserEveryCycle(t *testing.T) {
	cases := []struct {
		onAir int
		pops  []int
	}{
		{onAir: phy.MaxGPSUsers, pops: []int{1, 2, 3, 4, 5, 6, 7, 8}}, // format 1
		{onAir: phy.Format2GPSSlots, pops: []int{1, 2, 3}},            // format 2
	}
	for _, tc := range cases {
		for _, pop := range tc.pops {
			t.Run(fmt.Sprintf("onAir=%d/pop=%d", tc.onAir, pop), func(t *testing.T) {
				tbl := NewGPSSlotTable(true)
				users := admitN(t, tbl, pop)
				for cycle := 0; cycle < 6; cycle++ {
					s := tbl.GrantSchedule(tc.onAir)
					got := grantedSet(s)
					if got.users.Len() != pop {
						t.Fatalf("cycle %d: %d users granted, want %d: %v", cycle, got.users.Len(), pop, s)
					}
					for _, u := range users {
						slot := got.slot[u]
						if !got.users.Has(u) {
							t.Fatalf("cycle %d: user %v starved: %v", cycle, u, s)
						}
						if slot >= pop {
							t.Fatalf("cycle %d: user %v granted slot %d beyond the first %d: %v",
								cycle, u, slot, pop, s)
						}
					}
				}
			})
		}
	}
}

// TestGrantScheduleDeadlineOrder asserts the earliest-report-deadline-
// first property: grants are issued in ascending order of each user's
// last transmission opportunity — admission order at first, then the
// stable per-cycle rotation, with amendments (Granted) re-ranking a
// user behind everyone already served this cycle.
func TestGrantScheduleDeadlineOrder(t *testing.T) {
	tbl := NewGPSSlotTable(true)
	users := admitN(t, tbl, 4)

	// First cycle: admission order is deadline order.
	s := tbl.GrantSchedule(phy.MaxGPSUsers)
	for i, u := range users {
		if s[i] != u {
			t.Fatalf("first cycle grant order %v, want admission order %v", s, users)
		}
	}
	// The rotation is stable: the same order every cycle while
	// membership is unchanged — no user's slot index ever increases,
	// which is what keeps consecutive grants inside the 4 s deadline.
	for cycle := 0; cycle < 5; cycle++ {
		next := tbl.GrantSchedule(phy.MaxGPSUsers)
		if next != s {
			t.Fatalf("cycle %d reordered a stable population: %v → %v", cycle, s, next)
		}
	}

	// A new admission has the youngest opportunity clock (its first
	// report cannot be pending before it was admitted): it ranks last.
	if _, err := tbl.Admit(9); err != nil {
		t.Fatal(err)
	}
	s = tbl.GrantSchedule(phy.MaxGPSUsers)
	if s[4] != 9 {
		t.Fatalf("new admission not ranked last: %v", s)
	}
	for i, u := range users {
		if s[i] != u {
			t.Fatalf("admission disturbed the established order: %v", s)
		}
	}

	// An out-of-band grant (a CF2 amendment) counts as an opportunity:
	// the amended user re-ranks behind users granted earlier in the
	// same cycle — the order is unchanged here because user 9 was
	// already last.
	tbl.Granted(9)
	if next := tbl.GrantSchedule(phy.MaxGPSUsers); next != s {
		t.Fatalf("amendment reordered the rotation: %v → %v", s, next)
	}
}

// TestGrantScheduleDepartureOnlyAdvances asserts rule R3's deadline
// safety: when a user leaves, every remaining user keeps its rank or
// moves earlier — never later — so the 4 s cadence cannot stretch.
func TestGrantScheduleDepartureOnlyAdvances(t *testing.T) {
	tbl := NewGPSSlotTable(true)
	admitN(t, tbl, 6)
	before := tbl.GrantSchedule(phy.MaxGPSUsers)
	rankBefore := grantedSet(before)
	if err := tbl.Leave(3); err != nil {
		t.Fatal(err)
	}
	after := tbl.GrantSchedule(phy.MaxGPSUsers)
	rankAfter := grantedSet(after)
	if rankAfter.users.Len() != 5 {
		t.Fatalf("population after departure = %d, want 5: %v", rankAfter.users.Len(), after)
	}
	for _, u := range rankAfter.users.AppendTo(nil) {
		if r := rankAfter.slot[u]; r > rankBefore.slot[u] {
			t.Fatalf("user %v moved later after a departure: slot %d → %d", u, rankBefore.slot[u], r)
		}
	}
}

// TestGrantScheduleFormat2Coalescing covers the dynamic-adjustment
// corner the paper motivates: a departure that consolidates the table
// under 3 users switches the cell to format 2 (five GPS slots coalesce
// into an extra data slot) and the 3-slot schedule still serves every
// remaining user every cycle.
func TestGrantScheduleFormat2Coalescing(t *testing.T) {
	tbl := NewGPSSlotTable(true)
	admitN(t, tbl, 4)
	if tbl.Format() != Format1 {
		t.Fatalf("4 users should need format 1, got %v", tbl.Format())
	}
	if err := tbl.Leave(2); err != nil {
		t.Fatal(err)
	}
	if tbl.Format() != Format2 {
		t.Fatalf("3 consolidated users should permit format 2, got %v", tbl.Format())
	}
	if !tbl.Consolidated() {
		t.Fatal("table not consolidated after departure")
	}
	for cycle := 0; cycle < 4; cycle++ {
		s := tbl.GrantSchedule(phy.Format2GPSSlots)
		got := grantedSet(s)
		for _, u := range []frame.UserID{1, 3, 4} {
			if !got.users.Has(u) || got.slot[u] >= phy.Format2GPSSlots {
				t.Fatalf("cycle %d: user %v not served within format 2's slots: %v", cycle, u, s)
			}
		}
	}
}

// TestGrantScheduleOverCapacityRotates documents the defensive bound:
// should the population ever exceed the on-air slot count (unreachable
// with consolidation, but the policy must not assume it), the ungranted
// tail keeps its older clocks and is served first next cycle, so every
// user is granted within ceil(pop/onAir) cycles.
func TestGrantScheduleOverCapacityRotates(t *testing.T) {
	const pop, onAir = 5, 3
	tbl := NewGPSSlotTable(true)
	users := admitN(t, tbl, pop)
	var lastGranted [frame.UserIDs]int
	for _, u := range users {
		lastGranted[u] = -1
	}
	for cycle := 0; cycle < 10; cycle++ {
		s := tbl.GrantSchedule(onAir)
		got := grantedSet(s)
		if got.users.Len() != onAir {
			t.Fatalf("cycle %d: %d grants, want %d: %v", cycle, got.users.Len(), onAir, s)
		}
		for _, u := range got.users.AppendTo(nil) {
			lastGranted[u] = cycle
		}
		for _, u := range users {
			if cycle-lastGranted[u] >= 2 {
				t.Fatalf("cycle %d: user %v waited more than 2 cycles (last granted %d)",
					cycle, u, lastGranted[u])
			}
		}
	}
}

// TestBaseCF2AmendsLateGPSAdmission drives the base station through the
// exact shape of the ROADMAP grant-starvation bug: a GPS registration
// processed after BeginCycle froze the CF1 schedule. The CF2 build must
// amend the schedule with the earliest announced-free slot the new user
// can still hear about (start ≥ CF2 end + half-duplex switch) — and
// only under the deadline-aware policy.
func TestBaseCF2AmendsLateGPSAdmission(t *testing.T) {
	minStart := func(b *BaseStation) int {
		// First on-air slot index whose start clears CF2 + switch.
		lay := b.Layout()
		for s := range lay.GPS {
			if lay.GPS[s].Start >= lay.CF2.End+phy.HalfDuplexSwitch {
				return s
			}
		}
		return -1
	}

	t.Run("format1 amendment", func(t *testing.T) {
		b, _ := newTestBase(t, nil)
		b.BeginCycle()
		for i := 0; i < 5; i++ {
			register(t, b, frame.EIN(200+i), true)
		}
		b.BeginCycle() // announces the 5 established users in slots 0–4
		late := register(t, b, 300, true)
		cf2 := b.BuildCF2()
		amends := b.CF2Amendments()
		if len(amends) != 1 || amends[0].User != late {
			t.Fatalf("amendments = %+v, want one for %v", amends, late)
		}
		// Slots 0–4 are taken; slot 5 is the earliest free slot at or
		// past the CF2-hearable threshold (which slot 4 already clears).
		if want := 5; amends[0].Slot != want {
			t.Fatalf("amended slot = %d, want %d (threshold slot %d)", amends[0].Slot, want, minStart(b))
		}
		if cf2.GPSSchedule[amends[0].Slot] != late {
			t.Fatalf("CF2 schedule does not carry the amendment: %v", cf2.GPSSchedule)
		}
		// Next cycle the amended user joins the stable rotation last.
		b.BeginCycle()
		s := b.ControlFields().GPSSchedule
		if s[5] != late {
			t.Fatalf("amended user not ranked after the established five next cycle: %v", s)
		}
	})

	t.Run("earliest eligible slot", func(t *testing.T) {
		b, _ := newTestBase(t, nil)
		b.BeginCycle()
		for i := 0; i < 4; i++ {
			register(t, b, frame.EIN(200+i), true)
		}
		b.BeginCycle() // format 1, slots 0–3 held
		late := register(t, b, 300, true)
		b.BuildCF2()
		amends := b.CF2Amendments()
		// Slot 4 (the first free slot) starts after the CF2-hearable
		// threshold in format 1, so it is the amendment target.
		if len(amends) != 1 || amends[0].Slot != minStart(b) {
			t.Fatalf("amendments = %+v, want slot %d", amends, minStart(b))
		}
		_ = late
	})

	t.Run("format2 has no hearable slot", func(t *testing.T) {
		b, _ := newTestBase(t, nil)
		b.BeginCycle() // empty table → format 2
		late := register(t, b, 300, true)
		cf2 := b.BuildCF2()
		if amends := b.CF2Amendments(); len(amends) != 0 {
			t.Fatalf("format 2 amendment should be infeasible (all GPS slots precede CF2): %+v", amends)
		}
		for _, u := range cf2.GPSSchedule {
			if u == late {
				t.Fatalf("late admission leaked into the CF2 schedule: %v", cf2.GPSSchedule)
			}
		}
		// The user's first grant then comes next cycle at slot 0 — an
		// early slot, safely inside the deadline.
		b.BeginCycle()
		if s := b.ControlFields().GPSSchedule; s[0] != late {
			t.Fatalf("late admission not served first next cycle: %v", s)
		}
	})

	t.Run("legacy policy never amends", func(t *testing.T) {
		b, _ := newTestBase(t, func(c *Config) { c.GPSGrantPolicy = GPSGrantFixed })
		b.BeginCycle()
		for i := 0; i < 5; i++ {
			register(t, b, frame.EIN(200+i), true)
		}
		b.BeginCycle()
		register(t, b, 300, true)
		b.BuildCF2()
		if amends := b.CF2Amendments(); len(amends) != 0 {
			t.Fatalf("legacy policy amended the CF2 schedule: %+v", amends)
		}
	})

	t.Run("established users are never amended", func(t *testing.T) {
		b, _ := newTestBase(t, nil)
		b.BeginCycle()
		for i := 0; i < 3; i++ {
			register(t, b, frame.EIN(200+i), true)
		}
		b.BeginCycle()
		b.BuildCF2()
		if amends := b.CF2Amendments(); len(amends) != 0 {
			t.Fatalf("amendment fired without a late admission: %+v", amends)
		}
	})
}
