// Package backbone implements the wired point-to-point network that
// interconnects base stations (paper §2.2: "The base station … is
// connected to one another to form a wired point-to-point backbone
// network. … The base station receives data packets from all mobile
// subscribers and forwards them to their destinations.").
//
// The backbone delivers an uplink message completed at one base station
// to the destination subscriber's base station after a wired
// propagation+queueing delay, where it is fragmented again for downlink
// transmission.
//
// # Execution engines
//
// Two engines drive a multi-cell deployment, selected by
// Options.Sharded:
//
//   - Serial (the differential oracle): every cell shares one
//     sim.Simulator, exactly the single-kernel design the rest of the
//     repo's determinism discipline is proven against.
//   - Sharded: every cell runs its own kernel on a dedicated goroutine,
//     synchronized by conservative-lookahead barriers derived from
//     WireDelay (see shard.go). Cross-cell sends are exchanged at
//     barriers and merged in the fixed total order
//     (delivery time, source cell, per-source sequence).
//
// Same-seed runs of the two engines are byte-identical — identical
// per-cell metrics, identical merged trace streams, identical backbone
// counters and latency samples — at any GOMAXPROCS. The twin test
// battery in twin_test.go and FuzzShardExchange enforce this.
package backbone

import (
	"fmt"
	"time"

	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/sim"
	"github.com/osu-netlab/osumac/internal/stats"
)

// Address identifies a subscriber globally: the EIN is universally
// unique (paper §3.1), so it doubles as the routing key. Only
// subscribers added through Internet.AddSubscriber occupy the global
// address space; cells may additionally hold local-only subscribers
// (added via Cell(i).AddSubscriber) whose EINs need only be unique
// within their cell — metro-scale deployments rely on this split, since
// the 16-bit EIN space is smaller than a metro's subscriber population.
type Address = frame.EIN

// Options configures a multi-cell deployment.
type Options struct {
	// Cells is the number of OSU-MAC cells (≥1). Cell i runs with
	// Config.Seed+i so cells are statistically independent.
	Cells int
	// WireDelay is the one-way backbone latency between any two base
	// stations (point-to-point mesh). In sharded mode it must be
	// positive: it is the conservative-lookahead bound that guarantees
	// a cross-cell send generated inside a window delivers at or after
	// the window's end barrier.
	WireDelay time.Duration
	// Sharded selects the per-cell-kernel engine. The default (false)
	// keeps every cell on one shared kernel — the differential oracle.
	Sharded bool
	// Lookahead is the barrier window length for the sharded engine.
	// Zero means WireDelay (the maximum safe window); any explicit
	// value must lie in (0, WireDelay]. Smaller windows trade barrier
	// overhead for lower peak skew between shards; every legal value
	// produces byte-identical results.
	Lookahead time.Duration
	// CellTracer, when set, builds a per-cell tracer chain: cell i's
	// events are delivered inline (in cell-local order) to
	// CellTracer(i). This is the seam for per-shard conformance
	// checkers — each cell gets its own checker, valid in both engines.
	// A nil return detaches cell i.
	CellTracer func(cell int) core.Tracer
}

// Internet is a set of OSU-MAC cells joined by a wired backbone.
type Internet struct {
	kernel *sim.Simulator // serial engine's shared kernel; nil when sharded
	shards []*shard       // sharded engine's per-cell shards; nil when serial
	cells  []*core.Network
	taps   []*cellTap // per-cell trace taps (entries may be nil)
	sink   core.Tracer

	// WireDelay is the one-way backbone latency between any two base
	// stations (point-to-point mesh).
	WireDelay time.Duration
	lookahead time.Duration
	sharded   bool
	committed time.Duration // barrier-committed virtual time (sharded)

	// routing: EIN → cell index.
	home map[Address]int
	subs map[Address]*core.Subscriber

	// Pending inter-cell sends awaiting uplink completion, partitioned
	// by source cell so shard goroutines never share a map.
	pending []map[pendingKey]pendingSend
	// xseq hands out per-source-cell exchange sequence numbers — the
	// third component of the deterministic merge order. Partitioned per
	// cell for the same reason as pending.
	xseq []uint64

	// Serial-engine exchange state: deliveries bucketed by their
	// delivery instant, drained in (source cell, sequence) order by one
	// PriorityBackbone event per instant.
	buckets map[time.Duration][]xsend

	// Sharded-engine latency queue: forwarded sends whose end-to-end
	// latency sample is applied once the barrier commits their delivery
	// time, keeping stats.Sample's order-sensitive float accumulation
	// identical to the serial engine's.
	latQ []xsend

	// Metrics.
	Forwarded   stats.Counter
	Delivered   stats.Counter
	EndToEndLat stats.Sample // seconds, uplink arrival → downlink enqueue
}

type pendingKey struct {
	user  frame.UserID
	msgID uint16
}

type pendingSend struct {
	dst       Address
	createdAt time.Duration
}

// New builds an Internet of `cells` OSU-MAC cells on one shared kernel
// (the serial engine). Cell i uses cfg with Seed+i so cells are
// statistically independent.
func New(cfg core.Config, cells int, wireDelay time.Duration) (*Internet, error) {
	return NewWithOptions(cfg, Options{Cells: cells, WireDelay: wireDelay})
}

// NewWithOptions builds an Internet with full engine control. With
// more than one cell cfg.Scheduler must be nil; each cell then gets its
// own round-robin scheduler. The shared tracer cfg.Tracer, when set,
// receives the merged multi-cell event stream in (time, cell,
// per-cell sequence) order, flushed at deterministic points (every
// barrier in sharded mode, end of Run in serial mode); the cumulative
// stream is byte-identical across engines. Per-cell consumers
// (conformance checkers) should use Options.CellTracer instead, which
// delivers events inline.
func NewWithOptions(cfg core.Config, o Options) (*Internet, error) {
	if o.Cells <= 0 {
		return nil, fmt.Errorf("backbone: need at least one cell")
	}
	if cfg.Scheduler != nil && o.Cells > 1 {
		// Every cell gets a copy of cfg, so a set scheduler would be one
		// instance shared by all cells: stateful schedulers (round-robin
		// keeps its last-served user) would couple the cells, and the
		// sharded engine would race on them. Left nil, each cell gets
		// its own default scheduler.
		return nil, fmt.Errorf("backbone: Config.Scheduler must be nil for %d cells (one scheduler value cannot be shared across cells)", o.Cells)
	}
	if o.Sharded {
		if o.WireDelay <= 0 {
			return nil, fmt.Errorf("backbone: sharded mode needs a positive WireDelay (it is the conservative-lookahead bound)")
		}
		if o.Lookahead == 0 {
			o.Lookahead = o.WireDelay
		}
		if o.Lookahead < 0 || o.Lookahead > o.WireDelay {
			return nil, fmt.Errorf("backbone: lookahead %v outside (0, WireDelay=%v]", o.Lookahead, o.WireDelay)
		}
	}
	in := &Internet{
		WireDelay: o.WireDelay,
		lookahead: o.Lookahead,
		sharded:   o.Sharded,
		sink:      cfg.Tracer,
		home:      make(map[Address]int),
		subs:      make(map[Address]*core.Subscriber),
		pending:   make([]map[pendingKey]pendingSend, o.Cells),
		xseq:      make([]uint64, o.Cells),
		taps:      make([]*cellTap, o.Cells),
	}
	if !o.Sharded {
		in.kernel = sim.New()
		in.buckets = make(map[time.Duration][]xsend)
	}
	for i := 0; i < o.Cells; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		var next core.Tracer
		if o.CellTracer != nil {
			next = o.CellTracer(i)
		}
		c.Tracer = nil
		if in.sink != nil || next != nil {
			tap := &cellTap{next: next, capture: in.sink != nil}
			in.taps[i] = tap
			c.Tracer = tap
		}
		kernel := in.kernel
		if o.Sharded {
			kernel = sim.New()
		}
		n, err := core.NewNetworkOnSim(c, kernel)
		if err != nil {
			return nil, err
		}
		idx := i
		n.OnUplinkComplete = func(user frame.UserID, msgID uint16, bytes int) {
			in.onUplink(idx, user, msgID, bytes)
		}
		in.pending[i] = make(map[pendingKey]pendingSend)
		in.cells = append(in.cells, n)
		if o.Sharded {
			in.shards = append(in.shards, &shard{idx: i, kernel: kernel, cell: n, in: in})
		}
	}
	return in, nil
}

// Cell returns cell i's network.
func (in *Internet) Cell(i int) *core.Network { return in.cells[i] }

// Cells returns the number of cells.
func (in *Internet) Cells() int { return len(in.cells) }

// Sharded reports whether the deployment runs on the per-cell-kernel
// engine.
func (in *Internet) Sharded() bool { return in.sharded }

// Kernel returns the shared simulation kernel of the serial engine, or
// nil in sharded mode (each cell owns a kernel there; see
// Cell(i).Sim()).
func (in *Internet) Kernel() *sim.Simulator { return in.kernel }

// Now returns the deployment's committed virtual time: the shared
// kernel clock in serial mode, the last barrier time in sharded mode.
// Between Run calls every cell's clock equals this value.
func (in *Internet) Now() time.Duration {
	if in.sharded {
		return in.committed
	}
	return in.kernel.Now()
}

// AddSubscriber places a subscriber in cell `cell`; the EIN is the
// global address.
func (in *Internet) AddSubscriber(ein Address, cell int, isGPS bool, joinAt time.Duration) (*core.Subscriber, error) {
	if cell < 0 || cell >= len(in.cells) {
		return nil, fmt.Errorf("backbone: cell %d out of range", cell)
	}
	if _, dup := in.home[ein]; dup {
		return nil, fmt.Errorf("backbone: duplicate EIN %d", ein)
	}
	sub, err := in.cells[cell].AddSubscriber(ein, isGPS, joinAt)
	if err != nil {
		return nil, err
	}
	in.home[ein] = cell
	in.subs[ein] = sub
	return sub, nil
}

// Subscriber returns the globally-addressed subscriber, or nil if the
// address was never registered through AddSubscriber.
func (in *Internet) Subscriber(ein Address) *core.Subscriber { return in.subs[ein] }

// Send queues an inter-cell message: src's next uplink message carries
// it to its base station, the backbone forwards it, and the destination
// base station schedules it downlink. The source subscriber must be
// active. Send is a between-runs operation: call it only while Run is
// not executing.
func (in *Internet) Send(src, dst Address, size int) error {
	srcCell, ok := in.home[src]
	if !ok {
		return fmt.Errorf("backbone: unknown source %d", src)
	}
	if _, ok := in.home[dst]; !ok {
		return fmt.Errorf("backbone: unknown destination %d", dst)
	}
	sub := in.subs[src]
	if sub.State() != core.StateActive {
		return fmt.Errorf("backbone: source %d not active", src)
	}
	// Enqueue the uplink message; its msgID is the subscriber's next
	// sequence number, which AddMessage assigns in order. Track it so
	// the uplink-completion hook can route it.
	msgID := sub.NextMsgID()
	now := in.Now()
	if !sub.AddMessage(size, now) {
		return fmt.Errorf("backbone: source %d queue full", src)
	}
	in.cells[srcCell].TrackMessage(sub.ID(), msgID, size, now)
	in.pending[srcCell][pendingKey{user: sub.ID(), msgID: msgID}] = pendingSend{
		dst:       dst,
		createdAt: now,
	}
	return nil
}

// onUplink routes a completed uplink message across the wire. It runs
// inside the source cell's kernel (the shared kernel in serial mode, the
// cell's shard goroutine in sharded mode).
func (in *Internet) onUplink(cell int, user frame.UserID, msgID uint16, bytes int) {
	key := pendingKey{user: user, msgID: msgID}
	send, ok := in.pending[cell][key]
	if !ok {
		return // intra-cell traffic, not ours
	}
	delete(in.pending[cell], key)
	now := in.cellNow(cell)
	x := xsend{
		deliverAt: now + in.WireDelay,
		src:       cell,
		dst:       in.home[send.dst],
		seq:       in.xseq[cell],
		dstAddr:   send.dst,
		bytes:     bytes,
		latency:   now - send.createdAt,
	}
	in.xseq[cell]++
	if in.sharded {
		s := in.shards[cell]
		s.forwarded++
		s.outbox = append(s.outbox, x)
		return
	}
	in.Forwarded.Inc()
	in.enqueueSerial(x)
}

// cellNow returns cell i's current kernel time.
func (in *Internet) cellNow(cell int) time.Duration {
	if in.sharded {
		return in.shards[cell].kernel.Now()
	}
	return in.kernel.Now()
}

// Run advances every cell by the given number of notification cycles on
// a shared virtual clock. On an internal cell failure the returned
// error is a *CellError naming the cell and the virtual time it had
// reached; the deployment is poisoned for further runs, but every
// cell's partial metrics and traces remain readable.
func (in *Internet) Run(cycles int) error {
	if cycles <= 0 {
		return fmt.Errorf("backbone: non-positive cycle count")
	}
	if in.sharded {
		return in.runSharded(cycles)
	}
	return in.runSerial(cycles)
}

// runSerial drives all cells on the shared kernel — the differential
// oracle the sharded engine is verified against.
func (in *Internet) runSerial(cycles int) error {
	start := in.kernel.Now()
	for _, cell := range in.cells {
		if err := cell.ScheduleCycles(cycles, start); err != nil {
			return err
		}
	}
	kerr := in.kernel.Run(horizonFor(start, cycles))
	if kerr != nil {
		err := in.serialFailure(kerr)
		in.flushTraces()
		return err
	}
	for _, cell := range in.cells {
		cell.FlushSeries()
	}
	in.flushTraces()
	return nil
}

// serialFailure wraps a mid-flight kernel stop in a *CellError naming
// the failed cell. At most one cell can fail on the shared kernel: the
// failing event stops the loop before any other cell runs.
func (in *Internet) serialFailure(kerr error) error {
	for i, cell := range in.cells {
		if err := cell.Err(); err != nil {
			return &CellError{Cell: i, At: in.kernel.Now(), Err: err}
		}
	}
	return kerr
}

// horizonFor computes the run horizon: the cycles' span plus the
// runway for the final cycle's reverse slots to land.
func horizonFor(start time.Duration, cycles int) time.Duration {
	return start + time.Duration(cycles)*phy.CycleLength + phy.ReverseShift
}
