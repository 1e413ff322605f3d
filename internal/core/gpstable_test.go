package core

import (
	"testing"
	"testing/quick"

	"github.com/osu-netlab/osumac/internal/frame"
)

func TestGPSAdmitInOrder(t *testing.T) {
	tb := NewGPSSlotTable(true)
	for i := 0; i < 8; i++ {
		slot, err := tb.Admit(frame.UserID(i))
		if err != nil {
			t.Fatal(err)
		}
		if slot != i {
			t.Fatalf("user %d got slot %d (R2 violated)", i, slot)
		}
	}
	if _, err := tb.Admit(frame.UserID(9)); err == nil {
		t.Fatal("9th GPS user admitted")
	}
}

func TestGPSAdmitRejectsDuplicatesAndInvalid(t *testing.T) {
	tb := NewGPSSlotTable(true)
	if _, err := tb.Admit(5); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Admit(5); err == nil {
		t.Fatal("duplicate admission allowed")
	}
	if _, err := tb.Admit(frame.NoUser); err == nil {
		t.Fatal("NoUser admitted")
	}
}

// TestGPSLeaveShiftDown reproduces the paper's example: users 1–8
// registered in order; users 2, 3, 5, 6, 7 leave. Dynamic adjustment
// consolidates the remaining three users into slots 0–2 so the cell can
// switch to format 2.
func TestGPSLeaveShiftDown(t *testing.T) {
	tb := NewGPSSlotTable(true)
	for i := 1; i <= 8; i++ {
		if _, err := tb.Admit(frame.UserID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range []frame.UserID{2, 3, 5, 6, 7} {
		if err := tb.Leave(u); err != nil {
			t.Fatal(err)
		}
	}
	if !tb.Consolidated() {
		t.Fatal("dynamic table left holes")
	}
	if tb.Active() != 3 {
		t.Fatalf("Active = %d, want 3", tb.Active())
	}
	if tb.Format() != Format2 {
		t.Fatalf("Format = %v, want Format2", tb.Format())
	}
	// Survivors 1, 4, 8 sit in slots 0, 1, 2 in their original order.
	want := []frame.UserID{1, 4, 8}
	for i, u := range want {
		if tb.Holder(i) != u {
			t.Fatalf("slot %d = %v, want %v", i, tb.Holder(i), u)
		}
	}
}

// TestGPSStaticLeavesHoles demonstrates the naive approach the paper
// argues against: holes prevent the format-2 conversion.
func TestGPSStaticLeavesHoles(t *testing.T) {
	tb := NewGPSSlotTable(false)
	for i := 1; i <= 8; i++ {
		if _, err := tb.Admit(frame.UserID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range []frame.UserID{2, 3, 5, 6, 7} {
		if err := tb.Leave(u); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Consolidated() {
		t.Fatal("static table should have holes")
	}
	if tb.Active() != 3 {
		t.Fatalf("Active = %d, want 3", tb.Active())
	}
	// User 8 still holds slot 7, forcing format 1 despite only 3 users.
	if tb.Format() != Format1 {
		t.Fatalf("Format = %v, want Format1 (hole at high slot)", tb.Format())
	}
}

func TestGPSLeaveUnknown(t *testing.T) {
	tb := NewGPSSlotTable(true)
	if err := tb.Leave(3); err == nil {
		t.Fatal("leave of unknown user allowed")
	}
}

// TestGPSShiftDownOnlyMovesEarlier verifies the R3 safety argument:
// re-assignment never moves a user to a later slot, so the 4-second
// access bound survives every transition.
func TestGPSShiftDownOnlyMovesEarlier(t *testing.T) {
	tb := NewGPSSlotTable(true)
	users := []frame.UserID{10, 11, 12, 13, 14, 15}
	for _, u := range users {
		if _, err := tb.Admit(u); err != nil {
			t.Fatal(err)
		}
	}
	var before [frame.UserIDs]int
	for _, u := range users {
		before[u] = tb.SlotOf(u)
	}
	if err := tb.Leave(11); err != nil {
		t.Fatal(err)
	}
	for _, u := range users {
		if u == 11 {
			continue
		}
		if after := tb.SlotOf(u); after > before[u] {
			t.Fatalf("user %v moved later: %d → %d", u, before[u], after)
		}
	}
}

func TestGPSReadmitAfterLeave(t *testing.T) {
	tb := NewGPSSlotTable(true)
	for i := 0; i < 8; i++ {
		if _, err := tb.Admit(frame.UserID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Leave(0); err != nil {
		t.Fatal(err)
	}
	slot, err := tb.Admit(20)
	if err != nil {
		t.Fatal(err)
	}
	if slot != 7 {
		t.Fatalf("re-admission got slot %d, want first free slot 7", slot)
	}
}

func TestGPSSnapshot(t *testing.T) {
	tb := NewGPSSlotTable(true)
	if _, err := tb.Admit(42); err != nil {
		t.Fatal(err)
	}
	snap := tb.Snapshot()
	if snap[0] != 42 {
		t.Fatal("snapshot missing holder")
	}
	for i := 1; i < len(snap); i++ {
		if snap[i] != frame.NoUser {
			t.Fatal("snapshot shows phantom holders")
		}
	}
	if tb.Holder(-1) != frame.NoUser || tb.Holder(99) != frame.NoUser {
		t.Fatal("out-of-range Holder should be NoUser")
	}
}

// Property: under any admit/leave sequence, a dynamic table stays
// consolidated, reassignments only move users earlier, and Format
// matches the active count.
func TestPropertyGPSTableInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		tb := NewGPSSlotTable(true)
		var members frame.UserSet
		for _, op := range ops {
			u := frame.UserID(op % 32)
			if members.Has(u) {
				var pre [frame.UserIDs]int
				for _, m := range members.AppendTo(nil) {
					pre[m] = tb.SlotOf(m)
				}
				if err := tb.Leave(u); err != nil {
					return false
				}
				members.Remove(u)
				for _, m := range members.AppendTo(nil) {
					if tb.SlotOf(m) > pre[m] {
						return false // moved later: R3 safety broken
					}
				}
			} else if members.Len() < 8 {
				slot, err := tb.Admit(u)
				if err != nil {
					return false
				}
				if slot != members.Len() {
					return false // R2: not the first unused slot
				}
				members.Add(u)
			}
			if !tb.Consolidated() {
				return false
			}
			if tb.Active() != members.Len() {
				return false
			}
			wantFormat := FormatFor(members.Len())
			if tb.Format() != wantFormat {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
