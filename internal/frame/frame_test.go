package frame

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"github.com/osu-netlab/osumac/internal/phy"
)

// TestControlFieldBitBudget pins the reconstructed layout to the paper's
// stated totals: 630 payload bits, 138 reserved of 768.
func TestControlFieldBitBudget(t *testing.T) {
	if ControlFieldBits != 630 {
		t.Fatalf("ControlFieldBits = %d, want 630", ControlFieldBits)
	}
	if ControlFieldReservedBits != 138 {
		t.Fatalf("ControlFieldReservedBits = %d, want 138", ControlFieldReservedBits)
	}
	if got := GPSScheduleEntries * UserIDBits; got != 48 {
		t.Fatalf("GPS schedule bits = %d, want 48", got)
	}
	if got := ReverseScheduleEntries * UserIDBits; got != 54 {
		t.Fatalf("reverse schedule bits = %d, want 54", got)
	}
	if got := ForwardScheduleEntries * UserIDBits; got != 222 {
		t.Fatalf("forward schedule bits = %d, want 222", got)
	}
}

func TestNewControlFieldsAllUnassigned(t *testing.T) {
	cf := NewControlFields()
	if cf.ActiveGPSUsers() != 0 {
		t.Fatal("fresh control fields report active GPS users")
	}
	if got := len(cf.ContentionSlots()); got != ReverseScheduleEntries {
		t.Fatalf("fresh control fields have %d contention slots, want all %d", got, ReverseScheduleEntries)
	}
	for _, a := range cf.ReverseACKs {
		if !a.None() {
			t.Fatal("fresh ACK entry not empty")
		}
	}
}

func TestControlFieldsRoundTrip(t *testing.T) {
	cf := NewControlFields()
	cf.GPSSchedule[0] = 5
	cf.GPSSchedule[7] = 12
	cf.ReverseSchedule[1] = 33
	cf.ReverseSchedule[8] = 62
	cf.ForwardSchedule[0] = 1
	cf.ForwardSchedule[36] = 44
	cf.ReverseACKs[2] = ReverseACK{User: 9, EIN: 0xBEEF}
	cf.Paging[17] = 21

	b, err := cf.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalControlFields(b)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *cf {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, cf)
	}
}

func TestMarshalControlFieldsRejectsOversizedID(t *testing.T) {
	cf := NewControlFields()
	cf.GPSSchedule[0] = 64 // does not fit 6 bits
	if _, err := cf.Marshal(); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("err = %v, want ErrBadPacket", err)
	}
}

func TestUnmarshalControlFieldsLength(t *testing.T) {
	if _, err := UnmarshalControlFields(make([]byte, 95)); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestActiveGPSUsersAndContentionSlots(t *testing.T) {
	cf := NewControlFields()
	cf.GPSSchedule[0] = 1
	cf.GPSSchedule[1] = 2
	cf.GPSSchedule[2] = 3
	cf.GPSSchedule[3] = 4
	if cf.ActiveGPSUsers() != 4 {
		t.Fatalf("ActiveGPSUsers = %d, want 4", cf.ActiveGPSUsers())
	}
	cf.ReverseSchedule[0] = NoUser // contention
	cf.ReverseSchedule[1] = 7
	cf.ReverseSchedule[2] = 7
	slots := cf.ContentionSlots()
	if len(slots) != ReverseScheduleEntries-2 {
		t.Fatalf("contention slots = %v", slots)
	}
	if slots[0] != 0 {
		t.Fatalf("first contention slot = %d, want 0", slots[0])
	}
}

func TestUserID(t *testing.T) {
	if NoUser.Valid() {
		t.Fatal("NoUser should not be assignable")
	}
	if !UserID(0).Valid() || !MaxUserID.Valid() {
		t.Fatal("boundary IDs should be valid")
	}
	if NoUser.String() != "-" {
		t.Fatalf("NoUser.String() = %q", NoUser.String())
	}
	if UserID(7).String() != "u7" {
		t.Fatalf("UserID(7).String() = %q", UserID(7).String())
	}
}

func TestUserSet(t *testing.T) {
	var s UserSet
	for _, u := range []UserID{NoUser, 40, 0, 7, 40} {
		s.Add(u)
	}
	s.Remove(7)
	s.Remove(9) // absent: no-op
	// IDs beyond the 6-bit space are never members.
	s.Add(64)
	s.Add(255)
	if got := fmt.Sprint(s.AppendTo(nil)); got != "[u0 u40 -]" || s.Len() != 3 {
		t.Fatalf("members %s (len %d), want [u0 u40 -]", got, s.Len())
	}
	if !s.Has(40) || s.Has(7) || s.Has(64) || s.Has(255) {
		t.Fatal("membership wrong")
	}
	if s.First() != 0 || UserSet(0).First() != UserIDs {
		t.Fatal("First wrong")
	}
}

func TestPacketTypeString(t *testing.T) {
	for _, c := range []struct {
		t    PacketType
		want string
	}{
		{TypeData, "data"},
		{TypeRegistration, "registration"},
		{TypeReservation, "reservation"},
	} {
		if c.t.String() != c.want {
			t.Errorf("%d.String() = %q, want %q", int(c.t), c.t.String(), c.want)
		}
	}
	if PacketType(9).String() == "" {
		t.Error("unknown type should still render")
	}
}

// Property: arbitrary valid control fields survive a marshal/unmarshal
// round-trip.
func TestPropertyControlFieldsRoundTrip(t *testing.T) {
	f := func(gps [8]uint8, rev [9]uint8, fwd [37]uint8, ackU [9]uint8, ackE [9]uint16, page [18]uint8) bool {
		cf := NewControlFields()
		for i, v := range gps {
			cf.GPSSchedule[i] = UserID(v % 64)
		}
		for i, v := range rev {
			cf.ReverseSchedule[i] = UserID(v % 64)
		}
		for i, v := range fwd {
			cf.ForwardSchedule[i] = UserID(v % 64)
		}
		for i := range ackU {
			cf.ReverseACKs[i] = ReverseACK{User: UserID(ackU[i] % 64), EIN: EIN(ackE[i])}
		}
		for i, v := range page {
			cf.Paging[i] = UserID(v % 64)
		}
		b, err := cf.Marshal()
		if err != nil {
			return false
		}
		got, err := UnmarshalControlFields(b)
		return err == nil && *got == *cf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalSizeMatchesCodewords(t *testing.T) {
	cf := NewControlFields()
	b, err := cf.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != phy.ControlFieldCodewords*phy.CodewordInfoBytes {
		t.Fatalf("marshal size %d, want %d", len(b), phy.ControlFieldCodewords*phy.CodewordInfoBytes)
	}
}
