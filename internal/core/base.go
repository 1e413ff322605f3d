package core

import (
	"fmt"
	"slices"

	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/sched"
	"github.com/osu-netlab/osumac/internal/sim"
	"github.com/osu-netlab/osumac/internal/traffic"
)

// BaseStation owns resource arbitration, channel access and
// registration for one cell (paper §3.1). It builds the two
// control-field sets each notification cycle, schedules both channels,
// acknowledges reverse traffic, and runs the dynamic contention-slot
// controller.
type BaseStation struct {
	cfg     *Config
	metrics *Metrics
	rng     *sim.RNG

	// Registration state. Per-user tables are indexed by user ID.
	registry   map[frame.EIN]frame.UserID
	registered frame.UserSet
	gpsUsers   frame.UserSet
	einOf      [frame.UserIDs]frame.EIN
	gps        *GPSSlotTable

	// Reverse-channel demand bookkeeping: the slots owed to each user,
	// and when that demand appeared (read only while it is nonzero).
	demand       [frame.UserIDs]int
	arrivalSeq   int
	arrivalOrder [frame.UserIDs]int
	requests     []sched.Request // reused scheduler input

	// Dynamic contention-slot controller.
	contentionSlots     int
	collisionsThisCyc   int
	collisionsPrevCyc   int
	idleContentionCycs  int
	contentionUsedThisC bool
	contOfferedThisCyc  int
	contUsedThisCyc     int

	// Per-cycle state.
	layout     Layout
	layouts    [2]Layout            // precomputed per-format slot timings
	cf         *frame.ControlFields // announced schedule for the current cycle
	prevAcks   [frame.ReverseACKEntries]frame.ReverseACK
	curAcks    [frame.ReverseACKEntries]frame.ReverseACK
	prevLast   int          // last data-slot index of the previous cycle
	cf2User    frame.UserID // listener of this cycle's CF2 (prev last-slot user)
	curLastTx  frame.UserID // user who actually transmitted in this cycle's last slot
	lastAssign frame.UserID // user assigned this cycle's last data slot
	cf2Amends  []GPSAmendment
	pagesQueue []frame.UserID

	// cfBufs double-buffers the announced control fields so BeginCycle
	// allocates nothing: cycle k's set stays readable until its last
	// overlapping reverse slot resolves early in cycle k+1, so reuse at
	// k+2 is safe. cf2Scratch backs BuildCF2 the same way (valid until
	// the next BuildCF2 call).
	cfBufs     [2]frame.ControlFields
	cfFlip     int
	cfBlank    frame.ControlFields // all-unassigned template the buffers reset from
	cf2Scratch frame.ControlFields

	// Forward data queues.
	fwdQueue [frame.UserIDs][]*frame.DataPacket

	// Uplink message reassembly.
	asm reassembly
}

// NewBaseStation builds the cell controller.
func NewBaseStation(cfg *Config, metrics *Metrics, rng *sim.RNG) *BaseStation {
	return &BaseStation{
		layouts:         [2]Layout{NewLayout(Format1), NewLayout(Format2)},
		cfBlank:         *frame.NewControlFields(),
		cfg:             cfg,
		metrics:         metrics,
		rng:             rng,
		registry:        make(map[frame.EIN]frame.UserID),
		gps:             NewGPSSlotTable(cfg.DynamicSlotAdjustment),
		contentionSlots: cfg.MinContentionSlots,
		prevLast:        -1,
		cf2User:         frame.NoUser,
		curLastTx:       frame.NoUser,
		lastAssign:      frame.NoUser,
		cf:              frame.NewControlFields(),
	}
}

// Registered returns the user ID for an EIN, if admitted.
func (b *BaseStation) Registered(ein frame.EIN) (frame.UserID, bool) {
	u, ok := b.registry[ein]
	return u, ok
}

// ActiveUsers returns the number of admitted subscribers.
func (b *BaseStation) ActiveUsers() int { return len(b.registry) }

// Layout returns the current cycle's slot layout.
func (b *BaseStation) Layout() Layout { return b.layout }

// ControlFields returns the schedule announced this cycle (CF1 content).
func (b *BaseStation) ControlFields() *frame.ControlFields { return b.cf }

// CF2User returns who must listen to the second control fields this
// cycle.
func (b *BaseStation) CF2User() frame.UserID { return b.cf2User }

// Page queues a page for an inactive subscriber; it appears in the next
// cycle's paging field.
func (b *BaseStation) Page(user frame.UserID) {
	b.pagesQueue = append(b.pagesQueue, user)
}

// EnqueueForward queues an application message of the given size for
// downlink delivery to user; it is fragmented into data packets.
func (b *BaseStation) EnqueueForward(user frame.UserID, msgID uint16, size int) error {
	if !b.registered.Has(user) {
		return fmt.Errorf("core: forward enqueue for unknown user %v", user)
	}
	total := traffic.FragCount(size, frame.MaxPayload)
	for i := 0; i < total; i++ {
		b.fwdQueue[user] = append(b.fwdQueue[user], &frame.DataPacket{
			Header: frame.DataHeader{
				User:      user,
				MsgID:     msgID,
				Frag:      uint8(i),
				FragTotal: uint8(total),
			},
			Payload: make([]byte, fragmentSize(size, i)),
		})
	}
	return nil
}

// fragmentSize is the MAC payload size of fragment i of an application
// message; traffic.FragCount gives the number of fragments.
func fragmentSize(size, i int) int {
	return max(0, min(frame.MaxPayload, size-i*frame.MaxPayload))
}

// BeginCycle computes the schedule for cycle k and the CF1 contents.
// It must run at the forward cycle start, before CF1 transmission.
func (b *BaseStation) BeginCycle() {
	// Roll the ACK window: acks collected during the previous cycle are
	// announced now; the previous cycle's last slot is still in flight
	// and its ack lands in RecordReverse before CF2 is built.
	b.prevAcks = b.curAcks
	b.curAcks = emptyAcks()
	b.prevLast = b.layout.LastDataSlot()
	// The CF2 listener is whoever was ASSIGNED the previous cycle's last
	// data slot (the paper's rule is assignment-based, so it holds even
	// if the owner had nothing to send); when the slot was open, it is
	// whoever the base heard contending there.
	b.cf2User = b.lastAssign
	if b.cf2User == frame.NoUser {
		b.cf2User = b.curLastTx
	}
	b.curLastTx = frame.NoUser
	b.lastAssign = frame.NoUser

	// Contention-slot controller (paper §3.5): widen on collisions,
	// narrow after idle cycles.
	if !b.contentionUsedThisC {
		b.idleContentionCycs++
	} else {
		b.idleContentionCycs = 0
	}
	b.contentionUsedThisC = false
	// Widen only on repeated collisions ("multiple times in a
	// notification cycle or across multiple notification cycles");
	// narrow as soon as contention capacity goes unused (paper §3.1).
	repeated := b.collisionsThisCyc >= 2 ||
		(b.collisionsThisCyc >= 1 && b.collisionsPrevCyc >= 1)
	unused := b.contOfferedThisCyc - b.contUsedThisCyc
	switch {
	case repeated && b.contentionSlots < b.cfg.MaxContentionSlots:
		b.contentionSlots++
	case b.collisionsThisCyc == 0 && unused >= 1 && b.contOfferedThisCyc > 0 &&
		b.contentionSlots > b.cfg.MinContentionSlots:
		b.contentionSlots--
	}
	b.collisionsPrevCyc = b.collisionsThisCyc
	b.collisionsThisCyc = 0
	b.contOfferedThisCyc = 0
	b.contUsedThisCyc = 0

	// Format selection and layout.
	format := Format1
	if b.cfg.DynamicSlotAdjustment {
		format = b.gps.Format()
	}
	b.layout = b.layouts[int(format)-1]
	d := format.DataSlots()

	// Flip the control-field double buffer (see the field comment for why
	// two generations suffice) and reset it to all-unassigned.
	cf := &b.cfBufs[b.cfFlip]
	b.cfFlip ^= 1
	*cf = b.cfBlank
	if b.cfg.DynamicSlotAdjustment && b.cfg.GPSGrantPolicy == GPSGrantDeadline {
		// Deadline-aware grants: every registered GPS user gets a slot
		// this cycle (population never exceeds the on-air count with the
		// table consolidated), earliest report deadline first.
		cf.GPSSchedule = b.gps.GrantSchedule(format.GPSSlots())
	} else {
		cf.GPSSchedule = b.gps.Snapshot()
		if format == Format2 {
			// Only the first 3 GPS slots exist on air in format 2.
			for i := phy.Format2GPSSlots; i < len(cf.GPSSchedule); i++ {
				cf.GPSSchedule[i] = frame.NoUser
			}
		}
	}

	// Reverse data slots: first contentionSlots slots stay open, the
	// rest go to the scheduler. Without the second control fields the
	// last slot is never assigned (its owner could not hear any
	// schedule) — the paper's rejected single-CF alternative.
	cSlots := b.contentionSlots
	if cSlots > d-1 {
		cSlots = d - 1
	}
	lastAssignable := d
	if !b.cfg.SecondControlField {
		lastAssignable = d - 1
	}
	avail := lastAssignable - cSlots
	if avail < 0 {
		avail = 0
	}
	reqs := b.pendingRequests()
	var assignment []frame.UserID
	if len(reqs) > 0 {
		assignment = b.cfg.Scheduler.Schedule(reqs, avail)
	}
	for i, u := range assignment {
		cf.ReverseSchedule[cSlots+i] = u
	}
	b.fixCF2UserEarlySlots(cf, d)
	// Deduct granted slots from demand.
	for i := 0; i < d; i++ {
		if u := cf.ReverseSchedule[i]; u.Valid() && b.demand[u] > 0 {
			b.demand[u]--
		}
	}

	// Forward slots, constrained by half-duplex against the reverse
	// schedule just built and the CF2 rule.
	cf.ForwardSchedule = b.assignForward(cf, d)

	// ACKs for the previous cycle, minus its last slot (CF2's job).
	cf.ReverseACKs = b.prevAcks
	if b.prevLast >= 0 && b.prevLast < len(cf.ReverseACKs) {
		cf.ReverseACKs[b.prevLast] = frame.ReverseACK{User: frame.NoUser}
	}

	// Paging.
	for i := 0; i < len(cf.Paging) && len(b.pagesQueue) > 0; i++ {
		cf.Paging[i] = b.pagesQueue[0]
		b.pagesQueue = b.pagesQueue[1:]
	}

	b.cf = cf
	if last := d - 1; last >= 0 {
		b.lastAssign = cf.ReverseSchedule[last]
	}

	// Bookkeeping for Fig. 8a / 12b: slots that could carry data.
	b.metrics.DataSlotsOffered.Addn(uint64(d))
	assigned := 0
	for i := 0; i < d; i++ {
		if cf.ReverseSchedule[i] != frame.NoUser {
			assigned++
		}
	}
	b.metrics.DataSlotsAssigned.Addn(uint64(assigned))
	b.metrics.ContentionSlotsOpen.Addn(uint64(cf.ContentionSlotCount()))
	b.contOfferedThisCyc = cf.ContentionSlotCount()
}

// fixCF2UserEarlySlots enforces that this cycle's CF2 listener is not
// scheduled to transmit before it has heard CF2 (plus switch time). In
// format 2 the first data slot starts before CF2 ends.
func (b *BaseStation) fixCF2UserEarlySlots(cf *frame.ControlFields, d int) {
	if b.cf2User == frame.NoUser {
		return
	}
	minStart := b.layout.CF2.End + phy.HalfDuplexSwitch
	for i := 0; i < d; i++ {
		if cf.ReverseSchedule[i] != b.cf2User {
			continue
		}
		if b.layout.ReverseData[i].Start >= minStart {
			continue
		}
		// Swap with the latest slot held by a different user.
		swapped := false
		for j := d - 1; j > i; j-- {
			u := cf.ReverseSchedule[j]
			if u != b.cf2User && u != frame.NoUser && b.layout.ReverseData[j].Start >= minStart {
				cf.ReverseSchedule[i], cf.ReverseSchedule[j] = cf.ReverseSchedule[j], cf.ReverseSchedule[i]
				swapped = true
				break
			}
		}
		if !swapped {
			// No feasible swap: return the slot to the pool unassigned
			// and restore the user's demand.
			cf.ReverseSchedule[i] = frame.NoUser
			b.addDemand(b.cf2User, 1)
		}
	}
}

// assignForward builds the forward schedule for this cycle.
func (b *BaseStation) assignForward(cf *frame.ControlFields, d int) [frame.ForwardScheduleEntries]frame.UserID {
	var out [frame.ForwardScheduleEntries]frame.UserID
	for i := range out {
		out[i] = frame.NoUser
	}
	b.requests = b.requests[:0]
	for u, q := range b.fwdQueue {
		if len(q) > 0 {
			b.requests = append(b.requests, sched.Request{User: frame.UserID(u), Slots: len(q)})
		}
	}
	if len(b.requests) == 0 {
		return out
	}
	var tx [frame.UserIDs][]phy.Interval
	for i := 0; i < d; i++ {
		if u := cf.ReverseSchedule[i]; u.Valid() {
			tx[u] = append(tx[u], b.layout.ReverseData[i])
		}
	}
	for i, iv := range b.layout.GPS {
		if u := cf.GPSSchedule[i]; u.Valid() {
			tx[u] = append(tx[u], iv)
		}
	}
	cf2 := frame.NoUser
	if b.cfg.SecondControlField {
		cf2 = b.cf2User
	}
	assigned := sched.AssignForward(b.requests, sched.ForwardConstraints{
		SlotIntervals: b.layout.ForwardData,
		TxIntervals:   tx,
		CF2User:       cf2,
	})
	copy(out[:], assigned)
	return out
}

// GPSAmendment records a GPS grant added in the second control fields
// for a user admitted after this cycle's CF1 announcement.
type GPSAmendment struct {
	User frame.UserID
	Slot int
}

// BuildCF2 returns the second control-field set: identical to CF1
// except it acknowledges the previous cycle's last-slot activity
// (paper §3.4 problem 3) and, under the deadline-aware grant policy,
// amends the GPS schedule with slots for users admitted since CF1.
func (b *BaseStation) BuildCF2() *frame.ControlFields {
	b.amendCF2GPS()
	b.cf2Scratch = *b.cf
	if b.prevLast >= 0 && b.prevLast < len(b.cf2Scratch.ReverseACKs) {
		b.cf2Scratch.ReverseACKs[b.prevLast] = b.prevAcks[b.prevLast]
	}
	return &b.cf2Scratch
}

// CF2Amendments lists the GPS grants added by this cycle's CF2, for the
// harness's trace hooks. The slice is reused across cycles.
func (b *BaseStation) CF2Amendments() []GPSAmendment { return b.cf2Amends }

// amendCF2GPS grants each GPS user admitted after this cycle's CF1 the
// earliest announced-free on-air GPS slot it can still use — one whose
// start clears the CF2 listen window plus the half-duplex switch. A
// registration arriving in the previous cycle's overlapping last data
// slot is processed just after BeginCycle froze the schedule; without
// this repair the user's first grant comes a full cycle later at a
// fixed high slot index, whose start can fall past the first pending
// report's replacement deadline (the ROADMAP grant-starvation bug).
// The registrant activates on this same CF2 (its ack rides here too)
// and reads its slot from the amended schedule. Established users are
// untouched: amendments only fill slots announced empty.
func (b *BaseStation) amendCF2GPS() {
	b.cf2Amends = b.cf2Amends[:0]
	if !b.cfg.SecondControlField || !b.cfg.DynamicSlotAdjustment ||
		b.cfg.GPSGrantPolicy != GPSGrantDeadline {
		return
	}
	onAir := len(b.layout.GPS)
	if onAir > len(b.cf.GPSSchedule) {
		onAir = len(b.cf.GPSSchedule)
	}
	minStart := b.layout.CF2.End + phy.HalfDuplexSwitch
	for i := 0; i < phy.MaxGPSUsers; i++ {
		u := b.gps.Holder(i)
		if u == frame.NoUser || scheduleHas(b.cf.GPSSchedule, u) {
			continue
		}
		for s := 0; s < onAir; s++ {
			if b.cf.GPSSchedule[s] != frame.NoUser || b.layout.GPS[s].Start < minStart {
				continue
			}
			b.cf.GPSSchedule[s] = u
			b.gps.Granted(u)
			b.cf2Amends = append(b.cf2Amends, GPSAmendment{User: u, Slot: s})
			break
		}
	}
}

// scheduleHas reports whether user appears in a GPS schedule.
func scheduleHas(sched [frame.GPSScheduleEntries]frame.UserID, user frame.UserID) bool {
	for _, u := range sched {
		if u == user {
			return true
		}
	}
	return false
}

// pendingRequests converts the demand book into scheduler requests, in
// user-ID order. The slice is reused across cycles.
func (b *BaseStation) pendingRequests() []sched.Request {
	b.requests = b.requests[:0]
	for u, n := range b.demand {
		if n > 0 {
			b.requests = append(b.requests, sched.Request{User: frame.UserID(u), Slots: n, Arrival: b.arrivalOrder[u]})
		}
	}
	return b.requests
}

// addDemand books n reverse slots owed to user.
func (b *BaseStation) addDemand(user frame.UserID, n int) {
	if n <= 0 || !user.Valid() {
		return
	}
	if b.demand[user] == 0 {
		b.arrivalOrder[user] = b.arrivalSeq
		b.arrivalSeq++
	}
	b.demand[user] += n
}

// ReverseOutcome summarizes what the base received in one reverse data
// slot, for the network harness's metric hooks.
type ReverseOutcome struct {
	// Collision is true when ≥2 stations transmitted.
	Collision bool
	// Received is the successfully decoded packet, nil on loss/idle.
	Received *frame.Packet
	// MessageComplete is set when a data fragment completed an uplink
	// message reassembly; Bytes is its total payload size.
	MessageComplete bool
	User            frame.UserID
	MsgID           uint16
	Bytes           int
	// NewRegistration is set when a registration was approved this slot.
	NewRegistration bool
	AssignedID      frame.UserID
}

// RecordReverse processes the transmissions received in reverse data
// slot `slot` of the cycle whose ACK window `intoPrev` selects: false
// for the running cycle, true when the slot belongs to the previous
// cycle (only its last slot can arrive that late). raw holds the
// RS-decoded 48-byte payloads of each non-colliding transmission; the
// harness passes nil payloads for transmissions whose decode failed.
func (b *BaseStation) RecordReverse(slot int, intoPrev bool, isLastSlot bool, payloads [][]byte, contention bool) ReverseOutcome {
	if contention && len(payloads) > 0 {
		b.metrics.ContentionSlotsUsed.Inc()
		b.metrics.ContentionTx.Addn(uint64(len(payloads)))
		b.contentionUsedThisC = true
		b.contUsedThisCyc++
	}
	if len(payloads) == 0 {
		return ReverseOutcome{}
	}
	if len(payloads) > 1 {
		// Collision: everything in the slot is lost.
		b.metrics.ContentionCollisions.Inc()
		b.collisionsThisCyc++
		return ReverseOutcome{Collision: true}
	}
	payload := payloads[0]
	if payload == nil {
		// RS decode failure: counted as loss (no ACK).
		if !contention {
			b.metrics.FragmentsLost.Inc()
		}
		return ReverseOutcome{}
	}
	pkt, err := frame.UnmarshalPacket(payload)
	if err != nil {
		if !contention {
			b.metrics.FragmentsLost.Inc()
		}
		return ReverseOutcome{}
	}
	return b.recordPacket(slot, intoPrev, isLastSlot, pkt, contention)
}

// recordPacket applies a successfully decoded reverse-slot packet: the
// wire-independent back half of RecordReverse. The compiled executor
// calls it directly with a protocol-built packet, skipping the marshal →
// RS encode → RS decode → unmarshal round-trip an ideal channel cannot
// change.
func (b *BaseStation) recordPacket(slot int, intoPrev bool, isLastSlot bool, pkt *frame.Packet, contention bool) ReverseOutcome {
	var out ReverseOutcome
	acks := &b.curAcks
	if intoPrev {
		acks = &b.prevAcks
	}
	out.Received = pkt

	switch pkt.Type {
	case frame.TypeData:
		h := pkt.Data.Header
		if !b.registered.Has(h.User) {
			return out // stale packet from a deregistered user
		}
		if contention {
			b.metrics.ContentionSignals.Inc()
		}
		acks[slot] = frame.ReverseACK{User: h.User}
		if isLastSlot && !intoPrev {
			b.curLastTx = h.User
		}
		if h.MoreSlots > 0 {
			b.addDemand(h.User, int(h.MoreSlots))
			b.metrics.PiggybackRequests.Inc()
		}
		b.metrics.ReverseDataPkts.Inc()
		if isLastSlot {
			b.metrics.LastSlotDataPkts.Inc()
		}
		b.metrics.DataSlotsUsed.Inc()
		dup, done, total := b.asm.add(h, len(pkt.Data.Payload))
		if !dup {
			b.metrics.recordDelivered(h.User, len(pkt.Data.Payload))
		}
		if done {
			out.MessageComplete = true
			out.User = h.User
			out.MsgID = h.MsgID
			out.Bytes = total
		}
	case frame.TypeReservation:
		r := pkt.Reservation
		if !b.registered.Has(r.User) {
			return out
		}
		acks[slot] = frame.ReverseACK{User: r.User}
		if isLastSlot && !intoPrev {
			b.curLastTx = r.User
		}
		if r.Slots == 0 {
			// A zero-slot reservation is a page response: the subscriber
			// is alive and reachable.
			b.metrics.PageResponses.Inc()
		} else {
			b.addDemand(r.User, int(r.Slots))
			b.metrics.ReservationPackets.Inc()
			b.metrics.ContentionSignals.Inc()
		}
	case frame.TypeRegistration:
		req := pkt.Register
		user, ok := b.admit(req)
		if !ok {
			b.metrics.RegistrationsFailed.Inc()
			return out
		}
		acks[slot] = frame.ReverseACK{User: user, EIN: req.EIN}
		if isLastSlot && !intoPrev {
			b.curLastTx = user
		}
		out.NewRegistration = true
		out.AssignedID = user
		b.metrics.RegistrationsApproved.Inc()
	}
	return out
}

// admit approves a registration request, assigning a user ID (and a GPS
// slot for GPS subscribers). Re-registration of a known EIN returns the
// existing assignment.
func (b *BaseStation) admit(req *frame.RegistrationRequest) (frame.UserID, bool) {
	if u, ok := b.registry[req.EIN]; ok {
		return u, true
	}
	if len(b.registry) >= phy.MaxDataUsers-1 {
		return frame.NoUser, false
	}
	user := (^b.registered).First() // lowest free ID
	if !user.Valid() {
		return frame.NoUser, false
	}
	if req.WantGPS {
		if _, err := b.gps.Admit(user); err != nil {
			return frame.NoUser, false
		}
	}
	b.registry[req.EIN] = user
	b.registered.Add(user)
	b.einOf[user] = req.EIN
	if req.WantGPS {
		b.gpsUsers.Add(user)
	}
	return user, true
}

// Deregister administratively removes a subscriber (sign-off). GPS slot
// holders release their slot via the dynamic adjustment rules. The
// user's demand, forward queue and partial uplink messages go with it,
// so the next registrant given the same ID starts clean.
func (b *BaseStation) Deregister(user frame.UserID) error {
	if !b.registered.Has(user) {
		return fmt.Errorf("core: deregister unknown user %v", user)
	}
	if b.gpsUsers.Has(user) {
		if err := b.gps.Leave(user); err != nil {
			return err
		}
	}
	delete(b.registry, b.einOf[user])
	b.registered.Remove(user)
	b.gpsUsers.Remove(user)
	b.demand[user] = 0
	b.fwdQueue[user] = nil
	b.asm = slices.DeleteFunc(b.asm, func(st asmState) bool { return st.user == user })
	return nil
}

// RecordGPS processes a GPS slot reception. body is the received
// 32-byte packet body, nil if the slot was idle.
func (b *BaseStation) RecordGPS(body []byte) (*frame.GPSReport, bool) {
	if body == nil {
		return nil, false
	}
	rep, err := frame.UnmarshalGPSReport(body)
	if err != nil {
		b.metrics.GPSLost.Inc()
		return nil, false
	}
	if !b.RecordGPSDirect(rep) {
		return nil, false
	}
	return rep, true
}

// RecordGPSDirect applies an already-decoded GPS report: the
// wire-independent back half of RecordGPS, used by the compiled
// executor (an ideal channel cannot corrupt the 32-byte body, so the
// unmarshal of a protocol-built report cannot fail).
func (b *BaseStation) RecordGPSDirect(rep *frame.GPSReport) bool {
	if b.gps.SlotOf(rep.User) < 0 {
		// Report from a user that no longer holds a slot.
		b.metrics.GPSLost.Inc()
		return false
	}
	b.metrics.GPSDelivered.Inc()
	return true
}

// PopForward removes and returns the next queued forward packet for
// user, or nil.
func (b *BaseStation) PopForward(user frame.UserID) *frame.DataPacket {
	if int(user) >= len(b.fwdQueue) || len(b.fwdQueue[user]) == 0 {
		return nil
	}
	q := b.fwdQueue[user]
	b.fwdQueue[user] = q[1:]
	return q[0]
}

// ContentionSlotCount exposes the controller state for tests.
func (b *BaseStation) ContentionSlotCount() int { return b.contentionSlots }

// GPSTable exposes the slot table for tests and the harness.
func (b *BaseStation) GPSTable() *GPSSlotTable { return b.gps }

// reassembly is one receiver's in-progress messages, keyed by sender
// and message ID. Few are open at once and the newest sits last, so a
// reused slice scanned backward serves where a map would allocate per
// message.
type reassembly []asmState

// asmState is one message's received-fragment set.
type asmState struct {
	user     frame.UserID
	msgID    uint16
	total    int // fragments in the message
	count    int // distinct fragments received
	bytes    int
	received [4]uint64 // bitset over the 8-bit fragment index
}

// add records a fragment of payloadLen bytes. It reports whether the
// fragment was a duplicate retransmission, whether it completed its
// message, and the completed message's total payload size.
func (r *reassembly) add(h frame.DataHeader, payloadLen int) (dup, done bool, total int) {
	if h.FragTotal == 0 {
		return false, false, 0
	}
	i := len(*r) - 1
	for i >= 0 && ((*r)[i].user != h.User || (*r)[i].msgID != h.MsgID) {
		i--
	}
	if i < 0 {
		*r = append(*r, asmState{user: h.User, msgID: h.MsgID, total: int(h.FragTotal)})
		i = len(*r) - 1
	}
	st := &(*r)[i]
	word, bit := h.Frag/64, uint64(1)<<(h.Frag%64)
	if st.received[word]&bit != 0 {
		return true, false, 0
	}
	st.received[word] |= bit
	st.count++
	st.bytes += payloadLen
	if st.count < st.total {
		return false, false, 0
	}
	total = st.bytes
	*r = slices.Delete(*r, i, i+1)
	return false, true, total
}

// emptyAcks returns an all-empty ACK vector.
func emptyAcks() [frame.ReverseACKEntries]frame.ReverseACK {
	var out [frame.ReverseACKEntries]frame.ReverseACK
	for i := range out {
		out[i] = frame.ReverseACK{User: frame.NoUser}
	}
	return out
}
