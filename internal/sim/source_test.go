package sim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// This file checks the indexed source heap against a naive reference
// kernel that re-peeks every source and scans every event on each loop
// iteration — the dispatch the heap replaced. Scripted worlds of heap
// events and ActionSources run on both; any divergence in firing order,
// clock or return values is a re-keying bug.

// mergeKernel is the surface a scripted world drives. The Simulator and
// the linear-scan reference both implement it.
type mergeKernel interface {
	Now() time.Duration
	ReserveSeq() uint64
	Stop()
	Run(horizon time.Duration) error
	RunBefore(limit time.Duration) error
	schedule(at time.Duration, p Priority, fn func()) (cancel func())
	attach(src ActionSource) (rekey func())
}

// heapKernel adapts the Simulator.
type heapKernel struct{ *Simulator }

func (k heapKernel) schedule(at time.Duration, p Priority, fn func()) func() {
	ev, err := k.At(at, p, fn)
	if err != nil {
		panic(err)
	}
	return func() { k.Cancel(ev) }
}

func (k heapKernel) attach(src ActionSource) func() { return k.AttachSource(src).Rekey }

// linearKernel is the reference: every loop iteration scans all queued
// events and peeks every attached source.
type linearKernel struct {
	now     time.Duration
	seq     uint64
	stopped bool
	events  []*linearEvent
	sources []ActionSource
}

type linearEvent struct {
	at  time.Duration
	p   Priority
	seq uint64
	fn  func()
}

func (k *linearKernel) Now() time.Duration { return k.now }
func (k *linearKernel) Stop()              { k.stopped = true }

func (k *linearKernel) ReserveSeq() uint64 {
	k.seq++
	return k.seq - 1
}

func (k *linearKernel) schedule(at time.Duration, p Priority, fn func()) func() {
	ev := &linearEvent{at: at, p: p, seq: k.ReserveSeq(), fn: fn}
	k.events = append(k.events, ev)
	return func() {
		for i, e := range k.events {
			if e == ev {
				k.events = append(k.events[:i], k.events[i+1:]...)
				return
			}
		}
	}
}

func (k *linearKernel) attach(src ActionSource) func() {
	k.sources = append(k.sources, src)
	return func() {}
}

// next returns the earliest work item: an event index (src nil) or a
// source. Events win full-key ties, as in the Simulator.
func (k *linearKernel) next() (ev int, src ActionSource, at time.Duration, ok bool) {
	var (
		p   Priority
		seq uint64
	)
	ev = -1
	for i, e := range k.events {
		if !ok || before(e.at, e.p, e.seq, at, p, seq) {
			ev, at, p, seq, ok = i, e.at, e.p, e.seq, true
		}
	}
	for _, s := range k.sources {
		sat, sp, sseq, sok := s.PeekAction()
		if sok && (!ok || before(sat, sp, sseq, at, p, seq)) {
			ev, src, at, p, seq, ok = -1, s, sat, sp, sseq, true
		}
	}
	return ev, src, at, ok
}

// loop mirrors the Simulator's loops; stop reports whether work at the
// given time lies past the run's bound.
func (k *linearKernel) loop(stop func(at time.Duration) bool) (bounded bool, err error) {
	k.stopped = false
	for {
		ev, src, at, ok := k.next()
		if !ok {
			return false, nil
		}
		if k.stopped {
			return false, ErrStopped
		}
		if stop(at) {
			return true, nil
		}
		k.now = at
		if src != nil {
			src.FireAction()
			continue
		}
		e := k.events[ev]
		k.events = append(k.events[:ev], k.events[ev+1:]...)
		e.fn()
	}
}

func (k *linearKernel) Run(horizon time.Duration) error {
	bounded, err := k.loop(func(at time.Duration) bool { return at > horizon })
	if err == nil && (bounded || k.now < horizon) {
		k.now = horizon
	}
	return err
}

func (k *linearKernel) RunBefore(limit time.Duration) error {
	_, err := k.loop(func(at time.Duration) bool { return at >= limit })
	if err == nil && k.now < limit {
		k.now = limit
	}
	return err
}

// mergeWorld is one scripted scenario bound to a kernel. Every work
// item that fires logs itself and then consumes the next script byte as
// its reaction, so two kernels that fire in the same order read the
// same bytes and build the same future.
type mergeWorld struct {
	k       mergeKernel
	script  []byte
	pos     int
	srcs    []*scriptSource
	cancels []func()
	items   int // work items created; bounds the scenario
	log     []string
}

// maxMergeItems bounds the events and actions one scenario creates.
const maxMergeItems = 300

func (w *mergeWorld) next() byte {
	if w.pos >= len(w.script) {
		return 0
	}
	b := w.script[w.pos]
	w.pos++
	return b
}

func (w *mergeWorld) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%v ", w.k.Now())+fmt.Sprintf(format, args...))
}

var mergePriorities = [...]Priority{PriorityDeliver, PriorityNormal, PriorityLate, PriorityBackbone}

// delay and priority decode a script byte into a near-future offset and
// a priority drawn from small sets, so (time, priority) ties are common.
func delay(b byte) time.Duration { return time.Duration(b%4) * time.Millisecond }
func priority(b byte) Priority   { return mergePriorities[(b>>2)%4] }

// addEvent schedules a heap event whose firing logs its label and
// reacts.
func (w *mergeWorld) addEvent(at time.Duration, p Priority) {
	w.items++
	label := w.items
	w.cancels = append(w.cancels, w.k.schedule(at, p, func() {
		w.logf("event %d", label)
		w.react(nil)
	}))
}

// react applies the next script byte. firing is the source whose
// action is running, or nil inside a heap event.
func (w *mergeWorld) react(firing *scriptSource) {
	b := w.next()
	if w.items >= maxMergeItems {
		return
	}
	now := w.k.Now()
	arg := w.next()
	switch b % 8 {
	case 1:
		w.addEvent(now+delay(arg), priority(arg))
	case 2, 3:
		// A new action on some source; b%8 == 3 adds two at the same
		// (time, priority), which only the sequence number orders.
		src := w.srcs[int(arg>>4)%len(w.srcs)]
		at, p := now+delay(arg), priority(arg)
		src.add(at, p)
		if b%8 == 3 {
			src.add(at, p)
		}
		// The kernel re-keys the firing source itself after
		// FireAction; any other source must re-key its own handle.
		if src != firing {
			src.rekey()
		}
	case 4:
		w.k.Stop()
	case 5:
		if len(w.cancels) > 0 {
			w.cancels[int(arg)%len(w.cancels)]()
		}
	case 6:
		// A heap event and a source action at the same instant and
		// priority.
		w.addEvent(now+delay(arg), priority(arg))
		src := w.srcs[int(arg>>4)%len(w.srcs)]
		src.add(now+delay(arg), priority(arg))
		if src != firing {
			src.rekey()
		}
	}
}

// scriptSource is an ActionSource over an unordered set of pending
// actions whose sequence numbers come from the kernel.
type scriptSource struct {
	w     *mergeWorld
	id    int
	acts  []scriptAction
	rekey func()
}

type scriptAction struct {
	at  time.Duration
	p   Priority
	seq uint64
}

func (s *scriptSource) add(at time.Duration, p Priority) {
	s.w.items++
	s.acts = append(s.acts, scriptAction{at: at, p: p, seq: s.w.k.ReserveSeq()})
}

func (s *scriptSource) head() int {
	best := -1
	for i, a := range s.acts {
		if best < 0 || before(a.at, a.p, a.seq, s.acts[best].at, s.acts[best].p, s.acts[best].seq) {
			best = i
		}
	}
	return best
}

func (s *scriptSource) PeekAction() (time.Duration, Priority, uint64, bool) {
	i := s.head()
	if i < 0 {
		return 0, 0, 0, false
	}
	a := s.acts[i]
	return a.at, a.p, a.seq, true
}

func (s *scriptSource) FireAction() {
	i := s.head()
	a := s.acts[i]
	s.acts = append(s.acts[:i], s.acts[i+1:]...)
	s.w.logf("source %d seq %d p %d", s.id, a.seq, a.p)
	s.w.react(s)
}

// runMergeScript plays a script on one kernel and returns its log. The
// first bytes shape the world (source count, initial events and
// actions, some sources left idle); the rest drive a sequence of Run
// and RunBefore windows, with reactions interleaved by firing order.
func runMergeScript(k mergeKernel, script []byte) []string {
	w := &mergeWorld{k: k, script: script}
	nsrc := 1 + int(w.next()%5)
	for i := 0; i < nsrc; i++ {
		src := &scriptSource{w: w, id: i}
		w.srcs = append(w.srcs, src)
		src.rekey = k.attach(src)
	}
	for i := 0; i < 6; i++ {
		b := w.next()
		if b&1 == 0 {
			w.addEvent(delay(b>>1), priority(b>>1))
			continue
		}
		// Sources with no initial action start idle and wake later.
		src := w.srcs[int(b>>4)%nsrc]
		src.add(delay(b>>1), priority(b>>1))
		src.rekey()
	}
	t := time.Duration(0)
	for win := 0; win < 12; win++ {
		b := w.next()
		t += time.Duration(b%6) * time.Millisecond
		var err error
		if b&0x80 != 0 {
			err = k.RunBefore(t)
		} else {
			err = k.Run(t)
		}
		w.log = append(w.log, fmt.Sprintf("window %d -> now %v err %v", t, k.Now(), err))
	}
	err := k.Run(t + time.Second)
	w.log = append(w.log, fmt.Sprintf("drain -> now %v err %v", k.Now(), err))
	return w.log
}

// checkMerge runs a script on both kernels and compares their logs.
func checkMerge(t *testing.T, script []byte) {
	t.Helper()
	want := runMergeScript(&linearKernel{}, script)
	got := runMergeScript(heapKernel{New()}, script)
	for i := 0; i < len(want) || i < len(got); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("script %x: entry %d differs\nheap:   %q\nlinear: %q", script, i, g, w)
		}
	}
}

// TestSourceMergeMatchesLinearScan is the differential battery: random
// scripts exercise (time, priority) ties, idle sources waking, re-keys
// from heap events and from other sources' actions, cancels, Stop, and
// RunBefore windows.
func TestSourceMergeMatchesLinearScan(t *testing.T) {
	rng := NewRNG(20011)
	n := 2000
	if testing.Short() {
		n = 300
	}
	for i := 0; i < n; i++ {
		script := make([]byte, 16+rng.Intn(240))
		for j := range script {
			script[j] = byte(rng.Intn(256))
		}
		checkMerge(t, script)
	}
}

// FuzzSourceMerge lets the fuzzer search for a script on which the
// indexed source heap and the linear-scan reference disagree.
func FuzzSourceMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 1, 3, 5, 7, 2, 0, 3, 0x22, 2, 0x31, 3, 0x10, 6, 0x05, 4, 0, 0x83, 1})
	f.Add([]byte{0, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 3, 0x40, 3, 0x40, 6, 0x40, 2, 0x40})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		checkMerge(t, script)
	})
}

// countingSource is an always-idle source that counts PeekAction calls.
type countingSource struct{ peeks int }

func (c *countingSource) PeekAction() (time.Duration, Priority, uint64, bool) {
	c.peeks++
	return 0, 0, 0, false
}

func (c *countingSource) FireAction() {}

// TestIdleSourceCostsNothing pins the heap's cost model: an idle source
// is peeked once at attach and never again while heap events run.
func TestIdleSourceCostsNothing(t *testing.T) {
	s := New()
	idle := make([]*countingSource, 50)
	for i := range idle {
		idle[i] = &countingSource{}
		s.AttachSource(idle[i])
	}
	for i := 0; i < 1000; i++ {
		s.After(time.Duration(i)*time.Microsecond, func() {})
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for i, c := range idle {
		if c.peeks != 1 {
			t.Fatalf("idle source %d peeked %d times, want 1", i, c.peeks)
		}
	}
}

// TestSourceStopAfterAction pins Stop from inside a source action: the
// loop halts before the next item, the source is re-keyed, and the next
// Run resumes with its remaining action.
func TestSourceStopAfterAction(t *testing.T) {
	s := New()
	w := &mergeWorld{k: heapKernel{s}, script: []byte{4, 0}}
	src := &scriptSource{w: w}
	w.srcs = []*scriptSource{src}
	src.rekey = s.AttachSource(src).Rekey
	src.add(time.Millisecond, PriorityNormal)
	src.add(2*time.Millisecond, PriorityNormal)
	src.rekey()
	if err := s.RunUntilIdle(); !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if s.Now() != time.Millisecond || len(src.acts) != 1 {
		t.Fatalf("now %v with %d actions left, want 1ms and 1", s.Now(), len(src.acts))
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 2*time.Millisecond || len(src.acts) != 0 || s.EventsFired() != 2 {
		t.Fatalf("now %v, %d left, %d fired", s.Now(), len(src.acts), s.EventsFired())
	}
}

// tickSource has one pending action per period, forever.
type tickSource struct {
	at     time.Duration
	period time.Duration
	seq    func() uint64
	next   uint64
}

func (t *tickSource) PeekAction() (time.Duration, Priority, uint64, bool) {
	return t.at, PriorityNormal, t.next, true
}

func (t *tickSource) FireAction() {
	t.at += t.period
	t.next = t.seq()
}

// TestSourceDispatchZeroAlloc is the AllocsPerRun guard behind the
// hotpathalloc root SourceHandle.Rekey: firing source actions through
// the source heap, re-key included, does not allocate.
func TestSourceDispatchZeroAlloc(t *testing.T) {
	s := New()
	for i := 0; i < 8; i++ {
		src := &tickSource{at: time.Duration(i), period: time.Millisecond, seq: s.ReserveSeq}
		src.next = s.ReserveSeq()
		s.AttachSource(src)
	}
	limit := time.Duration(0)
	allocs := testing.AllocsPerRun(200, func() {
		limit += time.Millisecond
		if err := s.RunBefore(limit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("source dispatch allocates %.1f times per window, want 0", allocs)
	}
	if s.EventsFired() < 8*200 {
		t.Fatalf("fired %d actions, want at least %d", s.EventsFired(), 8*200)
	}
}
