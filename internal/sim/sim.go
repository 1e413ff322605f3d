// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel models virtual time as a time.Duration offset from the start
// of the simulation. Events are closures scheduled at absolute virtual
// times and executed in (time, priority, sequence) order, so two events
// scheduled for the same instant run in a deterministic order: first by
// ascending priority, then by scheduling order.
//
// The kernel is single-threaded by design: all protocol entities run in
// the event loop, which removes the need for locking inside protocol
// state machines and makes every run exactly reproducible for a given
// seed. This mirrors the JavaSim environment used by the OSU-MAC paper.
package sim

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// Priority orders events that fire at the same virtual instant. Lower
// values run first.
type Priority int

// Standard priorities. Most events use PriorityNormal; channel-delivery
// events use PriorityDeliver so that receptions complete before the next
// slot's control logic runs at the same instant. PriorityBackbone is
// reserved for cross-cell backbone deliveries: it sorts after every
// local event at the same instant, so a delivery's position in the
// total order depends only on its (time, source cell, source sequence)
// key and never on the scheduling interleaving of unrelated cells —
// the property that lets the sharded multi-cell engine reproduce the
// single-kernel order exactly (see internal/backbone).
const (
	PriorityDeliver  Priority = -10
	PriorityNormal   Priority = 0
	PriorityLate     Priority = 10
	PriorityBackbone Priority = 20
)

// ErrStopped is returned by Run when the simulation was halted by Stop
// before the horizon was reached.
var ErrStopped = errors.New("simulation stopped")

// Event is a scheduled closure. The closure receives the simulator so
// that handlers can schedule follow-up events without capturing it.
type Event struct {
	at       time.Duration
	priority Priority
	seq      uint64
	index    int // heap index; -1 once popped or canceled
	fn       func()
}

// At returns the virtual time the event is scheduled for.
func (e *Event) At() time.Duration { return e.at }

// Canceled reports whether the event has been canceled or already fired.
func (e *Event) Canceled() bool { return e.index == -1 }

// before reports whether work keyed (at, p, seq) sorts ahead of work
// keyed (bat, bp, bseq) in the kernel's total order.
func before(at time.Duration, p Priority, seq uint64, bat time.Duration, bp Priority, bseq uint64) bool {
	if at != bat {
		return at < bat
	}
	if p != bp {
		return p < bp
	}
	return seq < bseq
}

// eventQueue is a min-heap of events on (at, priority, seq). The sift
// code is written against *Event rather than container/heap so the
// dispatch loop pays no interface calls.
type eventQueue []*Event

func (q eventQueue) less(i, j int) bool {
	a, b := q[i], q[j]
	return before(a.at, a.priority, a.seq, b.at, b.priority, b.seq)
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q eventQueue) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !q.less(j, i) {
			return
		}
		q.swap(i, j)
		j = i
	}
}

// down sifts element i0 toward the leaves and reports whether it moved.
func (q eventQueue) down(i0 int) bool {
	i, n := i0, len(q)
	for {
		j := 2*i + 1
		if j >= n || j < 0 {
			break
		}
		if r := j + 1; r < n && q.less(r, j) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		i = j
	}
	return i > i0
}

func (q *eventQueue) push(ev *Event) {
	ev.index = len(*q)
	*q = append(*q, ev)
	q.up(ev.index)
}

// remove takes the element at heap position i out of the queue.
func (q *eventQueue) remove(i int) *Event {
	old := *q
	n := len(old) - 1
	if i != n {
		old.swap(i, n)
	}
	ev := old[n]
	old[n] = nil
	ev.index = -1
	*q = old[:n]
	if i != n && !q.down(i) {
		q.up(i)
	}
	return ev
}

// ActionSource feeds pre-sequenced actions into the kernel's main loop
// without per-action heap events. A source exposes its earliest pending
// action via PeekAction; the kernel merges it against the event heap on
// the usual (time, priority, sequence) order and calls FireAction when
// the source wins. Sequence numbers must come from ReserveSeq so that
// source actions and heap events share one total order.
//
// The kernel caches each source's head in a min-heap and re-reads it
// (through the SourceHandle returned by AttachSource) only after the
// source fires. A source whose head changes anywhere else — a new
// action becoming pending from inside a heap event, say — must call
// Rekey on its handle before returning control to the kernel.
//
// Sources exist for compiled executors (e.g. the core compiled-cycle
// fast path) whose action tables are known ahead of time; everything
// else should keep using At/After.
type ActionSource interface {
	// PeekAction returns the source's earliest pending action without
	// consuming it. ok is false when the source is idle.
	PeekAction() (at time.Duration, p Priority, seq uint64, ok bool)
	// FireAction executes the action PeekAction reported and advances
	// past it. The kernel has already moved the clock to its time.
	FireAction()
}

// SourceHandle is an attached ActionSource's entry in the kernel's
// source heap: the source's cached head key and its heap position.
type SourceHandle struct {
	sim      *Simulator
	src      ActionSource
	at       time.Duration
	priority Priority
	seq      uint64
	index    int // source-heap index; -1 while the source is idle
}

// Rekey re-reads the source's head through PeekAction and moves the
// handle to match: into the source heap when the source has work, out
// of it when the source went idle, or to its new position otherwise.
// It costs O(log active sources).
func (h *SourceHandle) Rekey() {
	at, p, seq, ok := h.src.PeekAction()
	q := &h.sim.sources
	if !ok {
		if h.index >= 0 {
			q.remove(h.index)
		}
		return
	}
	h.at, h.priority, h.seq = at, p, seq
	if h.index < 0 {
		q.push(h)
		return
	}
	if !q.down(h.index) {
		q.up(h.index)
	}
}

// sourceQueue is the min-heap of active source heads on (at, priority,
// seq), the concrete twin of eventQueue.
type sourceQueue []*SourceHandle

func (q sourceQueue) less(i, j int) bool {
	a, b := q[i], q[j]
	return before(a.at, a.priority, a.seq, b.at, b.priority, b.seq)
}

func (q sourceQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q sourceQueue) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !q.less(j, i) {
			return
		}
		q.swap(i, j)
		j = i
	}
}

// down sifts element i0 toward the leaves and reports whether it moved.
func (q sourceQueue) down(i0 int) bool {
	i, n := i0, len(q)
	for {
		j := 2*i + 1
		if j >= n || j < 0 {
			break
		}
		if r := j + 1; r < n && q.less(r, j) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		i = j
	}
	return i > i0
}

func (q *sourceQueue) push(h *SourceHandle) {
	h.index = len(*q)
	*q = append(*q, h)
	q.up(h.index)
}

// remove takes the handle at heap position i out of the queue.
func (q *sourceQueue) remove(i int) {
	old := *q
	n := len(old) - 1
	if i != n {
		old.swap(i, n)
	}
	old[n].index = -1
	old[n] = nil
	*q = old[:n]
	if i != n && !q.down(i) {
		q.up(i)
	}
}

// Simulator is a single-threaded discrete-event simulator.
//
// The zero value is not usable; construct with New.
type Simulator struct {
	now     time.Duration
	queue   eventQueue
	sources sourceQueue
	nsrc    int // attached sources: the source heap's capacity
	seq     uint64
	stopped bool
	fired   uint64
}

// New returns an empty simulator positioned at virtual time zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// EventsFired returns the number of events executed so far. It is useful
// for sanity checks and benchmarks.
func (s *Simulator) EventsFired() uint64 { return s.fired }

// Pending returns the number of events still queued.
func (s *Simulator) Pending() int { return len(s.queue) }

// At schedules fn at the absolute virtual time at with the given
// priority. Scheduling in the past is an error: the kernel never rewinds
// the clock.
func (s *Simulator) At(at time.Duration, p Priority, fn func()) (*Event, error) {
	if at < s.now {
		return nil, fmt.Errorf("sim: schedule at %v before now %v", at, s.now)
	}
	ev := &Event{at: at, priority: p, seq: s.seq, fn: fn}
	s.seq++
	s.queue.push(ev)
	return ev, nil
}

// After schedules fn delay after the current virtual time at normal
// priority. Negative delays are clamped to zero.
func (s *Simulator) After(delay time.Duration, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	ev, err := s.At(s.now+delay, PriorityNormal, fn)
	if err != nil {
		//lint:ignore panicfree provably unreachable: now+delay >= now after clamping delay to zero
		panic(err)
	}
	return ev
}

// AfterPriority schedules fn delay after the current time with an
// explicit priority.
func (s *Simulator) AfterPriority(delay time.Duration, p Priority, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	ev, err := s.At(s.now+delay, p, fn)
	if err != nil {
		//lint:ignore panicfree provably unreachable: now+delay >= now after clamping delay to zero
		panic(err)
	}
	return ev
}

// AttachSource registers an ActionSource with the kernel and returns
// its handle. Sources stay attached for the simulator's lifetime. An
// idle source sits outside the source heap and costs nothing; an active
// one costs one Rekey (a PeekAction call and an O(log sources) sift)
// per action it fires. The source heap is sized here for every attached
// source, so re-keys never allocate.
func (s *Simulator) AttachSource(src ActionSource) *SourceHandle {
	s.nsrc++
	s.sources = slices.Grow(s.sources, s.nsrc-len(s.sources))
	h := &SourceHandle{sim: s, src: src, index: -1}
	h.Rekey()
	return h
}

// ReserveSeq hands out the next scheduling sequence number without
// queuing a heap event. ActionSources reserve sequences in the exact
// order the equivalent At calls would have been made, so their actions
// interleave with heap events deterministically.
func (s *Simulator) ReserveSeq() uint64 {
	seq := s.seq
	s.seq++
	return seq
}

// nextUp selects the earliest pending work item — the event-heap head
// or the source-heap head — by (at, priority, seq). src is nil when the
// event wins; ok is false when nothing is pending at all.
func (s *Simulator) nextUp() (src *SourceHandle, at time.Duration, ok bool) {
	if len(s.sources) > 0 {
		src = s.sources[0]
		if len(s.queue) > 0 {
			ev := s.queue[0]
			if !before(src.at, src.priority, src.seq, ev.at, ev.priority, ev.seq) {
				return nil, ev.at, true
			}
		}
		return src, src.at, true
	}
	if len(s.queue) > 0 {
		return nil, s.queue[0].at, true
	}
	return nil, 0, false
}

// fire executes the work item nextUp selected: the source's next action
// (then re-keys the source) or the event-heap head.
func (s *Simulator) fire(src *SourceHandle, at time.Duration) {
	s.now = at
	s.fired++
	if src != nil {
		src.src.FireAction()
		src.Rekey()
		return
	}
	ev := s.queue.remove(0)
	fn := ev.fn
	ev.fn = nil
	if fn != nil {
		fn()
	}
}

// Cancel removes a scheduled event. Canceling a nil, fired, or already
// canceled event is a no-op and reports false.
func (s *Simulator) Cancel(ev *Event) bool {
	if ev == nil || ev.index == -1 {
		return false
	}
	s.queue.remove(ev.index)
	ev.fn = nil
	return true
}

// Stop halts the event loop after the currently executing event returns.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events until the queue drains or virtual time would pass
// horizon. Events scheduled exactly at the horizon still run. It returns
// ErrStopped if Stop was called, otherwise nil.
func (s *Simulator) Run(horizon time.Duration) error {
	s.stopped = false
	for {
		src, at, ok := s.nextUp()
		if !ok {
			break
		}
		if s.stopped {
			return ErrStopped
		}
		if at > horizon {
			// Leave future work queued; advance to the horizon so
			// repeated Run calls see monotonic time.
			s.now = horizon
			return nil
		}
		s.fire(src, at)
	}
	if s.now < horizon {
		s.now = horizon
	}
	return nil
}

// RunBefore executes events strictly before limit: every queued event
// or source action with at < limit fires, events at or after limit stay
// queued, and on normal completion the clock is left exactly at limit.
// It is the windowed counterpart of Run (whose horizon is inclusive),
// built for conservative-lookahead shard scheduling: a shard may safely
// execute everything before the next barrier time while cross-shard
// deliveries are guaranteed to be scheduled at or after it. Repeated
// RunBefore calls with increasing limits partition a run into windows
// that fire exactly the events one big Run would have fired, in the
// same order. It returns ErrStopped if Stop was called, leaving the
// clock at the stopping event's time.
func (s *Simulator) RunBefore(limit time.Duration) error {
	s.stopped = false
	for {
		src, at, ok := s.nextUp()
		if !ok {
			break
		}
		if s.stopped {
			return ErrStopped
		}
		if at >= limit {
			break
		}
		s.fire(src, at)
	}
	if s.now < limit {
		s.now = limit
	}
	return nil
}

// RunUntilIdle executes all queued events and leaves the clock at the
// time of the last event fired. It is intended for tests; production
// scenarios should use Run with a finite horizon so that periodic
// processes terminate.
func (s *Simulator) RunUntilIdle() error {
	s.stopped = false
	for {
		src, at, ok := s.nextUp()
		if !ok {
			break
		}
		if s.stopped {
			return ErrStopped
		}
		s.fire(src, at)
	}
	return nil
}

// Every schedules fn to run now+period, now+2·period, … until the
// returned stop function is invoked or the simulation ends. The period
// must be positive.
func (s *Simulator) Every(period time.Duration, fn func()) (stop func(), err error) {
	if period <= 0 {
		return nil, fmt.Errorf("sim: non-positive period %v", period)
	}
	var (
		current *Event
		halted  bool
	)
	var tick func()
	tick = func() {
		if halted {
			return
		}
		fn()
		if halted {
			return
		}
		current = s.After(period, tick)
	}
	current = s.After(period, tick)
	return func() {
		halted = true
		s.Cancel(current)
	}, nil
}
