package core

import (
	"testing"
	"time"

	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/traffic"
)

// auditCycle validates every protocol invariant of one announced
// schedule:
//
//   - no user appears in both a reverse slot and an overlapping (or
//     switch-guard-violating) forward slot (half-duplex, paper §3.5);
//   - the CF2 listener is not assigned forward slot 0 nor any reverse
//     slot starting before CF2 ends plus the switch guard;
//   - every scheduled user can hear its control fields: its reverse
//     transmissions never overlap the CF set it listens to;
//   - GPS slots only carry GPS-class users and data slots never carry a
//     user twice... (slot vectors are one-user-per-slot by construction,
//     but a user's slots must respect the half-duplex plan as a whole).
func auditCycle(t *testing.T, n *Network) {
	t.Helper()
	b := n.Base()
	layout := b.Layout()
	cf := b.ControlFields()
	cf2User := b.CF2User()

	type radio struct {
		plan phy.HalfDuplexPlan
		used bool
	}
	var plans [frame.UserIDs]radio
	get := func(u frame.UserID) *radio {
		r := &plans[u]
		r.used = true
		return r
	}

	// Reverse transmissions.
	for i, u := range cf.GPSSchedule {
		if u == frame.NoUser || i >= len(layout.GPS) {
			continue
		}
		if err := get(u).plan.AddTransmit(layout.GPS[i]); err != nil {
			t.Fatalf("cycle %d: GPS slot %d for %v: %v", n.Cycle(), i, u, err)
		}
	}
	for i, u := range cf.ReverseSchedule {
		if u == frame.NoUser || i >= len(layout.ReverseData) {
			continue
		}
		if err := get(u).plan.AddTransmit(layout.ReverseData[i]); err != nil {
			t.Fatalf("cycle %d: reverse slot %d for %v: %v", n.Cycle(), i, u, err)
		}
	}

	// Control-field listening: everyone scheduled must be able to hear
	// its CF set. The CF2 listener (last-slot user of the previous
	// cycle) listens to CF2; everyone else to CF1.
	for i := range plans {
		u, r := frame.UserID(i), &plans[i]
		if !r.used {
			continue
		}
		listen := layout.CF1
		if u == cf2User {
			listen = layout.CF2
		}
		if err := r.plan.AddReceive(listen); err != nil {
			t.Fatalf("cycle %d: user %v cannot hear its control fields: %v", n.Cycle(), u, err)
		}
	}

	// Forward receptions.
	for i, u := range cf.ForwardSchedule {
		if u == frame.NoUser {
			continue
		}
		if i == 0 && u == cf2User {
			t.Fatalf("cycle %d: CF2 listener %v assigned forward slot 0", n.Cycle(), u)
		}
		if err := get(u).plan.AddReceive(layout.ForwardData[i]); err != nil {
			t.Fatalf("cycle %d: forward slot %d for %v violates half-duplex: %v",
				n.Cycle(), i, u, err)
		}
	}

	// CF2 listener must not transmit before it has heard CF2.
	if cf2User != frame.NoUser {
		minStart := layout.CF2.End + phy.HalfDuplexSwitch
		for i, u := range cf.ReverseSchedule {
			if u == cf2User && i < len(layout.ReverseData) && layout.ReverseData[i].Start < minStart {
				t.Fatalf("cycle %d: CF2 listener %v scheduled at %v before CF2+switch %v",
					n.Cycle(), u, layout.ReverseData[i].Start, minStart)
			}
		}
	}

	// Schedulable sanity: a GPS-class user never holds a data slot and
	// vice versa (the base books demand only for data users, GPS slots
	// only from the GPS table).
	for i, u := range cf.GPSSchedule {
		if u == frame.NoUser {
			continue
		}
		for j, v := range cf.ReverseSchedule {
			if v == u {
				t.Fatalf("cycle %d: user %v holds GPS slot %d and data slot %d", n.Cycle(), u, i, j)
			}
		}
	}
}

// TestScheduleInvariantsUnderLoad audits every cycle of a heavily loaded
// mixed cell, with bidirectional traffic forcing forward assignments
// around reverse schedules.
func TestScheduleInvariantsUnderLoad(t *testing.T) {
	cfg := NewConfig()
	cfg.Seed = 31
	cfg.MeanInterarrival = traffic.InterarrivalForSlots(
		1.0, 8, traffic.PaperVariable, frame.MaxPayload, phy.CycleLength, 8)
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dataSubs []*Subscriber
	for i := 0; i < 4; i++ {
		if _, err := n.AddSubscriber(frame.EIN(1000+i), true, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		s, err := n.AddSubscriber(frame.EIN(2000+i), false, time.Duration(i)*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		dataSubs = append(dataSubs, s)
	}
	for cycle := 0; cycle < 120; cycle++ {
		if err := n.Run(1); err != nil {
			t.Fatal(err)
		}
		auditCycle(t, n)
		// Keep the forward queues busy so forward assignment happens
		// around the reverse schedule.
		if cycle%5 == 0 {
			for _, s := range dataSubs {
				if s.State() == StateActive {
					if err := n.SendToSubscriber(s, 120); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
		}
	}
}

// TestScheduleInvariantsFormat2 audits the tighter format-2 layout
// (its first data slot starts before CF2 ends, exercising the CF2
// listener swap logic).
func TestScheduleInvariantsFormat2(t *testing.T) {
	cfg := NewConfig()
	cfg.Seed = 77
	cfg.MeanInterarrival = traffic.InterarrivalForSlots(
		1.1, 6, traffic.PaperVariable, frame.MaxPayload, phy.CycleLength, 9)
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddSubscriber(1000, true, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := n.AddSubscriber(frame.EIN(2000+i), false, 0); err != nil {
			t.Fatal(err)
		}
	}
	sawCF2User := false
	for cycle := 0; cycle < 150; cycle++ {
		if err := n.Run(1); err != nil {
			t.Fatal(err)
		}
		auditCycle(t, n)
		if n.Base().CF2User() != frame.NoUser {
			sawCF2User = true
		}
	}
	if n.Base().Layout().Format != Format2 {
		t.Fatal("expected format 2")
	}
	if !sawCF2User {
		t.Fatal("last slot never used: CF2 swap logic untested")
	}
}
