package core

import (
	"bytes"
	"errors"
	"testing"

	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/sim"
)

// observedModel wraps a channel model and counts the codewords it
// changed, so a test can tell which deliverCF branches it exercised.
type observedModel struct {
	inner   phy.ErrorModel
	changed int
}

func (m *observedModel) Corrupt(cw []byte, rng *sim.RNG) int {
	k := m.inner.Corrupt(cw, rng)
	if k > 0 {
		m.changed++
	}
	return k
}

func (m *observedModel) Name() string { return "observed(" + m.inner.Name() + ")" }

// substituteModel replaces every transmission with another valid
// codeword sequence plus one byte error. That is beyond the correction
// radius of what was sent but within that of the substitute, so RS
// decoding succeeds onto information the sender never sent: a
// miscorrection.
type substituteModel struct{ with []byte }

func (m substituteModel) Corrupt(cw []byte, _ *sim.RNG) int {
	copy(cw, m.with)
	cw[3] ^= 0x5A
	return len(cw)
}

func (m substituteModel) Name() string { return "substitute" }

// wireCell returns a cell of idle active data users whose forward links
// run the registration example's Gilbert–Elliott channel, after enough
// cycles to register them all.
func wireCell(t *testing.T) *Network {
	t.Helper()
	cfg := NewConfig()
	cfg.Seed = 1
	cfg.NewForwardModel = func() phy.ErrorModel {
		return &observedModel{inner: phy.NewGilbertElliott(0.002, 0.15, 0.0002, 0.6)}
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := n.AddSubscriber(frame.EIN(3000+i), false, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Run(20); err != nil {
		t.Fatal(err)
	}
	for _, e := range n.subs {
		if e.sub.State() != StateActive {
			t.Fatalf("EIN %d not registered after 20 cycles", e.sub.EIN)
		}
	}
	return n
}

// TestDeliverCFZeroAlloc pins deliverCF's allocation contract on a
// Gilbert–Elliott link: intact receptions, corrupted ones within the
// correction radius, failed decodes and miscorrections all run without
// a heap allocation.
func TestDeliverCFZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := wireCell(t)
	e := n.subs[0]
	obs := e.fwdModel.(*observedModel)
	tx, layout := &n.cf1, n.base.Layout()

	const rounds = 2000
	failed0, changed0 := n.metrics.CFDecodeFailures.Value(), obs.changed
	received := 0
	if allocs := testing.AllocsPerRun(rounds, func() {
		if n.deliverCF(e, tx, layout) {
			received++
		}
	}); allocs != 0 {
		t.Errorf("deliverCF over Gilbert–Elliott: %v allocs/op, want 0", allocs)
	}
	failed := int(n.metrics.CFDecodeFailures.Value() - failed0)
	changed := obs.changed - changed0
	// AllocsPerRun adds one warm-up call to the measured rounds.
	if intact := rounds + 1 - changed; intact == 0 || changed-failed == 0 || failed == 0 {
		t.Fatalf("branches not all exercised: %d intact, %d corrupted but received, %d failed",
			intact, changed-failed, failed)
	}
	if received != rounds+1-failed {
		t.Fatalf("deliverCF reported %d receptions, want %d", received, rounds+1-failed)
	}

	other := *tx.sent
	other.ForwardSchedule[0] ^= 1
	air, err := n.codec.EncodeControlFields(&other)
	if err != nil {
		t.Fatal(err)
	}
	e.fwdModel = substituteModel{with: air}
	if !n.deliverCF(e, tx, layout) {
		t.Fatal("miscorrected set was not delivered")
	}
	if n.rxCF != other {
		t.Fatal("miscorrected set was not parsed from the received bytes")
	}
	if allocs := testing.AllocsPerRun(100, func() { n.deliverCF(e, tx, layout) }); allocs != 0 {
		t.Errorf("deliverCF on a miscorrection: %v allocs/op, want 0", allocs)
	}
}

// TestDeliverCFHandsOverSentSet checks the wire shortcut itself: a
// receiver whose bytes survive gets the sender's struct, not a copy.
func TestDeliverCFHandsOverSentSet(t *testing.T) {
	n := wireCell(t)
	e := n.subs[0]
	e.fwdModel = phy.Ideal{}
	tx := &n.cf1
	sent := *tx.sent
	n.rxCF = frame.ControlFields{}
	if !n.deliverCF(e, tx, n.base.Layout()) {
		t.Fatal("clean set was not delivered")
	}
	if n.rxCF != (frame.ControlFields{}) {
		t.Fatal("clean set was parsed into the miscorrection scratch")
	}
	if *tx.sent != sent || !bytes.Equal(tx.air, n.rxBuf) {
		t.Fatal("clean delivery changed the sent set or its codewords")
	}
}

// TestWireMarshalErrorsFail checks that a packet the wire cannot carry
// aborts the run with a typed InternalError instead of vanishing after
// its sender consumed it. A data fragment from an out-of-range user ID
// and a forward packet with an out-of-range piggyback field force the
// marshal errors.
func TestWireMarshalErrorsFail(t *testing.T) {
	for _, tc := range []struct {
		op    string
		force func(n *Network, e *subEntry)
	}{
		{"data packet marshal", func(n *Network, e *subEntry) {
			if !e.sub.AddMessage(30, n.sim.Now()) {
				t.Fatal("queue full")
			}
			e.plan = CyclePlan{GPSSlot: -1, ContentionSlot: -1, DataSlots: []int{4}}
			e.hasPlan, e.planCycle = true, n.cycle-1
			e.sub.id = frame.NoUser + 1
			n.dataSlotEnd(n.cycle-1, 4, false, false)
		}},
		{"forward packet marshal", func(n *Network, e *subEntry) {
			user := e.sub.ID()
			n.base.fwdQueue[user] = append(n.base.fwdQueue[user], &frame.DataPacket{
				Header: frame.DataHeader{User: user, MoreSlots: frame.MaxMoreSlots + 1, FragTotal: 1},
			})
			n.forwardSlotEnd(0, user)
		}},
	} {
		t.Run(tc.op, func(t *testing.T) {
			n := wireCell(t)
			e := n.subs[0]
			if !e.hasPlan || e.planCycle != n.cycle-1 {
				t.Fatal("subscriber missed the last cycle's control fields")
			}
			tc.force(n, e)
			var ie *InternalError
			if err := n.Err(); !errors.As(err, &ie) || ie.Op != tc.op || !errors.Is(err, frame.ErrBadPacket) {
				t.Fatalf("run error %v, want an InternalError %q wrapping frame.ErrBadPacket", err, tc.op)
			}
		})
	}
}
