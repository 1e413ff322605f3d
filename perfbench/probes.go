package main

// The traced run's instruments. Every probe delegates to the real
// component and only observes it:
//
//   - the scheduler wrapper is installed per cell through
//     Config.Scheduler, on cell workloads only. backbone.NewWithOptions
//     copies one Config — and so one scheduler pointer — into every
//     cell, which would share round-robin state across cells and race
//     under sharding; metro workloads therefore leave Config.Scheduler
//     nil. (A per-cell scheduler factory in backbone.Options would lift
//     this restriction.)
//   - the error-model wrapper is installed on cell-noisy only. Any model
//     type other than phy.Ideal clears the cell's allIdeal flag and turns
//     the compiled cycle executor off, so wrapping phy.Ideal would
//     measure a different program.
//
// Spans are kept in memory at the boundaries workload → setup / cycle /
// digest → sched.Schedule / phy.Corrupt and written out at exit.

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"github.com/osu-netlab/osumac/internal/conformance"
	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/sched"
	"github.com/osu-netlab/osumac/internal/sim"
)

type spanKind uint8

const (
	spanWorkload spanKind = iota
	spanSetup
	spanCycle
	spanDigest
	spanSched
	spanCorrupt
)

var spanNames = [...]string{"workload", "setup", "cycle", "digest", "sched.Schedule", "phy.Corrupt"}

// span is one recorded interval; times are ns since the recorder began.
type span struct {
	parent     int32
	kind       spanKind
	start, end int64
}

// Capture caps for the codec replays. Corrupted codewords are rare on
// the Gilbert–Elliott channel, so they get the larger budget.
const (
	maxCleanPairs   = 2048
	maxCorruptPairs = 8192
	maxCFs          = 4096
	maxSpans        = 200_000
)

// cwPair is one codeword as sent and as received.
type cwPair struct {
	dir      phy.Direction
	orig, rx [phy.CodewordBytes]byte
}

// probes records spans and layer counters for the traced run. A nil
// *probes is the untraced program: every method is a no-op.
type probes struct {
	base  time.Time
	spans []span
	root  int32
	cur   int32 // open cycle span, -1 when none

	schedCalls, schedReqs, slotsAvail, slotsAssigned uint64

	codewords [phy.Reverse + 1]uint64 // by phy.Direction
	corrupted uint64                  // codewords with at least one changed byte
	clean     []cwPair
	dirty     []cwPair
	pre       []byte

	cfs [][]byte // CF1 information bytes, one per observed cycle
}

func newProbes() *probes {
	p := &probes{base: time.Now(), cur: -1}
	p.root = p.open(spanWorkload)
	return p
}

func (p *probes) now() int64 { return int64(time.Since(p.base)) }

// full reports whether the span budget is spent; the traced run starts
// no further episode once it is.
func (p *probes) full() bool { return p != nil && len(p.spans) >= maxSpans }

func (p *probes) open(k spanKind) int32 {
	if p == nil {
		return -1
	}
	parent := p.root
	if k == spanWorkload {
		parent = -1
	}
	p.spans = append(p.spans, span{parent: parent, kind: k, start: p.now()})
	return int32(len(p.spans) - 1)
}

func (p *probes) close(id int32) {
	if p == nil || id < 0 {
		return
	}
	p.spans[id].end = p.now()
}

// child records a completed span under the open cycle span.
func (p *probes) child(k spanKind, start int64) {
	p.spans = append(p.spans, span{parent: p.cur, kind: k, start: start, end: p.now()})
}

func (p *probes) openCycle() int32 {
	if p == nil {
		return -1
	}
	p.cur = p.open(spanCycle)
	return p.cur
}

// closeCycle ends a cell cycle span and captures the cycle's CF1.
func (p *probes) closeCycle(id int32, n *core.Network) {
	if p == nil {
		return
	}
	p.close(id)
	p.cur = -1
	p.captureCF(n)
}

// metroTick runs inside the measured Internet.Run on cell 0's kernel:
// tick c closes cycle span c and opens the next one.
func (p *probes) metroTick(c, cycles int, cell0 *core.Network) {
	if p == nil {
		return
	}
	if c > 0 {
		p.close(p.cur)
		p.captureCF(cell0)
	}
	p.cur = -1
	if c < cycles {
		p.cur = p.open(spanCycle)
	}
}

func (p *probes) captureCF(n *core.Network) {
	if len(p.cfs) >= maxCFs {
		return
	}
	info, err := n.Base().ControlFields().MarshalTo(make([]byte, 0, frame.ControlFieldBytes))
	if err == nil {
		p.cfs = append(p.cfs, info)
	}
}

// wrapConfig installs the delegating scheduler (every cell workload) and
// error models (noisy channels only) on one cell's configuration.
func (p *probes) wrapConfig(cfg *core.Config, w workload) {
	if p == nil || w.metro {
		return
	}
	cfg.Scheduler = &schedProbe{inner: sched.NewRoundRobin(), p: p}
	if w.noisy {
		fwd, rev := cfg.NewForwardModel, cfg.NewReverseModel
		cfg.NewForwardModel = func() phy.ErrorModel { return &phyProbe{inner: fwd(), dir: phy.Forward, p: p} }
		cfg.NewReverseModel = func() phy.ErrorModel { return &phyProbe{inner: rev(), dir: phy.Reverse, p: p} }
	}
}

// schedProbe times and counts the reverse scheduler's calls.
type schedProbe struct {
	inner sched.ReverseScheduler
	p     *probes
}

func (s *schedProbe) Name() string { return s.inner.Name() }

func (s *schedProbe) Schedule(reqs []sched.Request, avail int) []frame.UserID {
	t0 := s.p.now()
	out := s.inner.Schedule(reqs, avail)
	s.p.child(spanSched, t0)
	s.p.schedCalls++
	s.p.schedReqs += uint64(len(reqs))
	s.p.slotsAvail += uint64(avail)
	for _, u := range out {
		if u != frame.NoUser {
			s.p.slotsAssigned++
		}
	}
	return out
}

// phyProbe times channel corruption and captures codewords as sent and
// as received for the RS and codec replays.
type phyProbe struct {
	inner phy.ErrorModel
	dir   phy.Direction
	p     *probes
}

func (m *phyProbe) Name() string { return m.inner.Name() }

func (m *phyProbe) Corrupt(cw []byte, rng *sim.RNG) int {
	p := m.p
	p.pre = append(p.pre[:0], cw...)
	t0 := p.now()
	changed := m.inner.Corrupt(cw, rng)
	p.child(spanCorrupt, t0)
	if len(cw)%phy.CodewordBytes != 0 {
		return changed // GPS reports are not RS codewords
	}
	for off := 0; off < len(cw); off += phy.CodewordBytes {
		var pair cwPair
		pair.dir = m.dir
		copy(pair.orig[:], p.pre[off:])
		copy(pair.rx[:], cw[off:])
		p.codewords[m.dir]++
		switch {
		case pair.orig != pair.rx:
			p.corrupted++
			if len(p.dirty) < maxCorruptPairs {
				p.dirty = append(p.dirty, pair)
			}
		case len(p.clean) < maxCleanPairs:
			p.clean = append(p.clean, pair)
		}
	}
	return changed
}

// writeSpans writes the recorded spans as CSV: id, parent, name, start
// and end in ns since the recorder began.
func (p *probes) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id,parent,name,start_ns,end_ns")
	for i, s := range p.spans {
		fmt.Fprintf(bw, "%d,%d,%s,%d,%d\n", i, s.parent, spanNames[s.kind], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkers is one counting tracer → conformance checker chain per cell.
// In the sharded engine each cell's chain runs on that cell's shard
// goroutine, so chains share nothing.
type checkers struct {
	chains []chain
}

type chain struct {
	events uint64
	chk    *conformance.Checker
}

func (c *chain) Trace(e core.TraceEvent) {
	c.events++
	c.chk.Trace(e)
}

func newCheckers(w workload, v *variant) *checkers {
	if !v.checkers {
		return nil
	}
	cs := &checkers{chains: make([]chain, w.cells)}
	for i := range cs.chains {
		cs.chains[i].chk = conformance.New(conformance.Options{
			// The paper's 4 s access bound is guaranteed on ideal
			// channels only; lossy links may drop grants.
			DeadlineMustHold:   !w.noisy,
			DynamicSlots:       true,
			SecondControlField: true,
		})
	}
	return cs
}

// tracer returns cell i's chain (the backbone.Options.CellTracer shape).
func (cs *checkers) tracer(i int) core.Tracer { return &cs.chains[i] }

// finish settles every checker and returns the trace events seen, the
// conformance violations found, and separately those of cycle seam.
// Internet.Run starts its cycles at the previous call's horizon, so a
// second call leaves ReverseShift of dead air before its first cycle;
// the paper's guarantees assume back-to-back cycles and do not hold
// across that seam. Pass seam < 0 when the drive has none.
func (cs *checkers) finish(seam int) (events uint64, violations, seamViolations int) {
	if cs == nil {
		return 0, 0, 0
	}
	for i := range cs.chains {
		events += cs.chains[i].events
		rep := cs.chains[i].chk.Finish()
		violations += rep.Truncated
		for _, v := range rep.Violations {
			if v.Cycle == seam {
				seamViolations++
			} else {
				violations++
			}
		}
	}
	return events, violations, seamViolations
}
