package core

import (
	"testing"

	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
)

// FuzzGPSGrantTable drives the GPS slot table through randomized
// admission / departure / grant / amendment sequences and checks the
// scheduler's invariants after every step:
//
//   - the table stays consolidated and its population matches the model;
//   - a grant schedule never names a non-member, never names anyone
//     twice, and never grants beyond the on-air slot count;
//   - whenever the population fits on air, EVERY member is granted,
//     packed into the first population-many entries (starvation-freedom);
//   - grants are issued in ascending opportunity-clock order
//     (earliest report deadline first), verified against an independent
//     model of the clocks.
//
// Each op byte decodes as: action = op & 3 (0 admit, 1 leave, 2 grant
// cycle, 3 out-of-band grant), format-2 flag = op & 4, user = high bits.
func FuzzGPSGrantTable(f *testing.F) {
	// The ROADMAP shape: seven buses admitted, granted for two cycles,
	// then an eighth admitted late and amended (out-of-band grant)
	// before its first scheduled cycle.
	f.Add([]byte{0x00, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x02, 0x02, 0x70, 0x73, 0x02})
	// Format-2 population with a mid-life departure.
	f.Add([]byte{0x00, 0x10, 0x20, 0x06, 0x11, 0x06, 0x06})
	// Over-capacity rotation: 7 members scheduled into 3 on-air slots.
	f.Add([]byte{0x00, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x06, 0x06, 0x06})
	f.Add([]byte{0x02})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, ops []byte) {
		tbl := NewGPSSlotTable(true)
		var members frame.UserSet
		// clock models lastSeq: admission and every issued grant bump it.
		var clock [frame.UserIDs]uint64
		var now uint64
		tick := func(u frame.UserID) { now++; clock[u] = now }

		for _, op := range ops {
			user := frame.UserID((op>>4)&7) + 1
			switch op & 3 {
			case 0: // admit
				_, err := tbl.Admit(user)
				switch {
				case members.Has(user) && err == nil:
					t.Fatalf("double admission of %v accepted", user)
				case !members.Has(user) && members.Len() < phy.MaxGPSUsers && err != nil:
					t.Fatalf("admission of %v refused with %d/%d slots used: %v",
						user, members.Len(), phy.MaxGPSUsers, err)
				}
				if err == nil {
					members.Add(user)
					tick(user)
				}
			case 1: // leave
				err := tbl.Leave(user)
				if members.Has(user) != (err == nil) {
					t.Fatalf("leave(%v) err=%v with membership %v", user, err, members.Has(user))
				}
				members.Remove(user)
				clock[user] = 0
			case 2: // grant cycle
				onAir := phy.MaxGPSUsers
				if op&4 != 0 {
					onAir = phy.Format2GPSSlots
				}
				s := tbl.GrantSchedule(onAir)
				verifySchedule(t, s, members, onAir)
				// Deadline order: granted clocks must ascend, and every
				// issued grant advances its holder's clock.
				var prev uint64
				for i := 0; i < len(s); i++ {
					u := s[i]
					if u == frame.NoUser {
						continue
					}
					if c := clock[u]; c < prev {
						t.Fatalf("grant order violates deadline order at slot %d: %v", i, s)
					} else {
						prev = c
					}
				}
				for _, u := range s {
					if u != frame.NoUser {
						tick(u)
					}
				}
			case 3: // out-of-band grant (CF2 amendment)
				tbl.Granted(user)
				if members.Has(user) {
					tick(user)
				}
			}
			if !tbl.Consolidated() {
				t.Fatalf("table lost consolidation after op %#x", op)
			}
			if tbl.Active() != members.Len() {
				t.Fatalf("population drifted: table %d, model %d", tbl.Active(), members.Len())
			}
		}
	})
}

// verifySchedule checks structural schedule invariants for one cycle.
func verifySchedule(t *testing.T, s [frame.GPSScheduleEntries]frame.UserID, members frame.UserSet, onAir int) {
	t.Helper()
	g := grantedSet(s)
	var seen frame.UserSet
	for i, u := range s {
		if u == frame.NoUser {
			continue
		}
		if i >= onAir {
			t.Fatalf("grant beyond the %d on-air slots: %v", onAir, s)
		}
		if !members.Has(u) {
			t.Fatalf("grant to non-member %v: %v", u, s)
		}
		if seen.Has(u) {
			t.Fatalf("user %v granted slots %d and %d: %v", u, g.slot[u], i, s)
		}
		seen.Add(u)
	}
	if members.Len() <= onAir {
		// Starvation-freedom: everyone served, packed at the front.
		if g.users.Len() != members.Len() {
			t.Fatalf("%d of %d members granted with room for all: %v", g.users.Len(), members.Len(), s)
		}
		for _, u := range g.users.AppendTo(nil) {
			if g.slot[u] >= members.Len() {
				t.Fatalf("member %v granted slot %d beyond the first %d: %v", u, g.slot[u], members.Len(), s)
			}
		}
	} else if g.users.Len() != onAir {
		t.Fatalf("over-capacity cycle granted %d slots, want all %d: %v", g.users.Len(), onAir, s)
	}
}
