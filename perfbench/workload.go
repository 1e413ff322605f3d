package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"github.com/osu-netlab/osumac/internal/backbone"
	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/sim"
	"github.com/osu-netlab/osumac/internal/traffic"
)

// workload sizes one deployment. README.md records why each exists.
type workload struct {
	name    string
	metro   bool
	noisy   bool // Gilbert–Elliott channels instead of ideal ones
	sharded bool // metro only: per-cell kernels instead of one shared kernel

	cells  int // independent cell replicas (cell workloads) or backbone cells (metro)
	gps    int // GPS subscribers per cell
	local  int // cell-local data subscribers per cell
	routed int // globally addressed data subscribers per cell (metro)
	load   float64
	warmup int // untimed cycles before the measured run
	cycles int // measured cycles
	xmsgs  int // cross-cell messages queued per routed subscriber (metro)
}

// procs is the GOMAXPROCS of a workload. The single-kernel workloads
// run one goroutine, so they get one P: the collector's work is then
// charged to the same CPU, and no figure depends on whether a shared
// host's second CPU happens to be free (at two Ps the cycle tail on
// cell-noisy moved 3× from run to run with it). metro-sharded runs at
// two, sized for a 2-CPU host: its parallelism is what it measures.
func (w workload) procs() int {
	if w.sharded {
		return 2
	}
	return 1
}

var workloads = []workload{
	{name: "cell-ideal", cells: 32, gps: 4, local: 10, load: 0.9, warmup: 5, cycles: 250},
	{name: "cell-noisy", noisy: true, cells: 32, gps: 4, local: 10, load: 0.9, warmup: 5, cycles: 250},
	{name: "metro-serial", metro: true, cells: 400, gps: 4, local: 8, routed: 2, load: 0.8, warmup: 2, cycles: 10, xmsgs: 3},
	{name: "metro-sharded", metro: true, sharded: true, cells: 1600, gps: 4, local: 8, routed: 2, load: 0.8, warmup: 2, cycles: 10, xmsgs: 3},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// subsPerCell is the subscriber count of one cell.
func (w workload) subsPerCell() int { return w.gps + w.local + w.routed }

// Gilbert–Elliott parameters of the registration example: (p good→bad,
// p bad→good, byte error rate good, byte error rate bad).
func reverseGE() phy.ErrorModel { return phy.NewGilbertElliott(0.004, 0.12, 0.0005, 0.6) }
func forwardGE() phy.ErrorModel { return phy.NewGilbertElliott(0.002, 0.15, 0.0002, 0.6) }

// variant is how one deployment is instrumented. The zero value is the
// plain, untraced program the end-to-end metrics measure.
type variant struct {
	// eventPath forces every cycle through the event kernel
	// (Config.DisableCompiledCycle), the cell-ideal differential oracle.
	eventPath bool
	// otherEngine runs a metro workload on the engine it does not name:
	// the differential oracle.
	otherEngine bool
	// checkers attaches a counting tracer and a conformance checker to
	// every cell.
	checkers bool
	// probes attaches the delegating scheduler and error-model wrappers
	// and the span recorder (cell workloads only; see probes.go).
	probes *probes
}

// replicaSeed derives cell replica r's seed from the workload seed
// (splitmix64), so replicas are statistically independent.
func replicaSeed(seed uint64, r int) uint64 {
	x := seed + uint64(r+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// config is the per-cell protocol configuration of a workload.
func (w workload) config(seed uint64, v *variant) core.Config {
	cfg := core.NewConfig()
	cfg.Seed = seed
	dataSlots := phy.Format1DataSlots
	if w.gps <= phy.Format2GPSSlots {
		dataSlots = phy.Format2DataSlots
	}
	cfg.MeanInterarrival = traffic.InterarrivalForSlots(w.load, w.local+w.routed,
		cfg.SizeDist, frame.MaxPayload, phy.CycleLength, dataSlots)
	cfg.DisableCompiledCycle = v.eventPath
	if w.noisy {
		cfg.NewReverseModel, cfg.NewForwardModel = reverseGE, forwardGE
	}
	return cfg
}

// episode is one build → warm-up → measured run → digest pass.
type episode struct {
	setupNew, setupAdd   time.Duration // network construction, AddSubscriber calls
	run                  time.Duration
	ref                  time.Duration // reference kernel time around the measured run
	cycleP50, cycleP99   time.Duration // over the episode's measured cycles
	digestTime           time.Duration
	subs                 int
	cycles               int // measured cycles per cell
	events               uint64
	mallocs, allocBytes  uint64
	numGC                uint32
	gcPause              uint64
	cpu                  time.Duration
	forwarded, delivered uint64
	traceEvents          uint64
	violations           int
	seamViolations       int
	digest               uint64
	model                model
	counters             coreCounters
}

// model holds the simulated-time statistics; they repeat exactly for a
// given seed.
type model struct {
	util       float64 // reverse-link utilisation, mean over cells
	delay      float64 // mean message delay in cycles, mean over cells with deliveries
	gpsOnTime  float64 // share of generated GPS reports not later than 4 s
	gpsMisses  uint64  // GPS reports later than 4 s (deadline violations)
	regWithin2 float64 // share of registrations completed within 2 cycles
}

// coreCounters are the compiled-executor counters summed over cells.
type coreCounters struct {
	cycles, compiled, fallbacks                 uint64
	fbLoss, fbContention, fbAmendment, fbFormat uint64
}

// meter brackets the measured run: wall, CPU, allocations and GC, and
// the reference kernel's time before and after it.
type meter struct {
	t0  time.Time
	cpu time.Duration
	ms  runtime.MemStats
	ref time.Duration
}

// startMeter times the reference kernel, which collects garbage first,
// so every measured run also starts from the same heap state whatever
// the previous episode left behind.
func startMeter() *meter {
	m := &meter{ref: refKernel()}
	runtime.ReadMemStats(&m.ms)
	m.cpu = processCPU()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop(e *episode) {
	e.run = time.Since(m.t0)
	e.cpu = processCPU() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.mallocs = ms.Mallocs - m.ms.Mallocs
	e.allocBytes = ms.TotalAlloc - m.ms.TotalAlloc
	e.numGC = ms.NumGC - m.ms.NumGC
	e.gcPause = ms.PauseTotalNs - m.ms.PauseTotalNs
	e.ref = (m.ref + refKernel()) / 2
}

// runEpisode builds, runs and digests one deployment of w. samples,
// when non-nil, receives the wall time of every measured cycle.
func runEpisode(w workload, seed uint64, v *variant, samples *[]time.Duration) (episode, error) {
	if w.metro {
		return runMetro(w, seed, v, samples)
	}
	return runCells(w, seed, v, samples)
}

// runCells drives each replica with the live-server loop of
// cmd/osumacsim: ScheduleCycles(total) once, then one Sim().Run per
// cycle up to start+c·CycleLength+ReverseShift.
func runCells(w workload, seed uint64, v *variant, samples *[]time.Duration) (episode, error) {
	e := episode{subs: w.cells * w.subsPerCell(), cycles: w.cycles}
	chk := newCheckers(w, v)
	p := v.probes

	setupSpan := p.open(spanSetup)
	nets, tNew, tAdd, err := buildCells(w, seed, v, chk)
	p.close(setupSpan)
	if err != nil {
		return e, err
	}
	e.setupNew, e.setupAdd = tNew, tAdd

	total := w.warmup + w.cycles
	starts := make([]time.Duration, len(nets))
	for r, n := range nets {
		starts[r] = n.Sim().Now()
		if err := n.ScheduleCycles(total, starts[r]); err != nil {
			return e, err
		}
		for c := 1; c <= w.warmup; c++ {
			if err := stepCycle(n, starts[r], c); err != nil {
				return e, fmt.Errorf("replica %d warm-up cycle %d: %w", r, c, err)
			}
		}
	}
	var ev0 uint64
	for _, n := range nets {
		ev0 += n.Sim().EventsFired()
	}

	m := startMeter()
	for r, n := range nets {
		for c := w.warmup + 1; c <= total; c++ {
			span := p.openCycle()
			c0 := time.Now()
			err := stepCycle(n, starts[r], c)
			d := time.Since(c0)
			p.closeCycle(span, n)
			if err != nil {
				return e, fmt.Errorf("replica %d cycle %d: %w", r, c, err)
			}
			if samples != nil {
				*samples = append(*samples, d)
			}
		}
	}
	m.stop(&e)

	for _, n := range nets {
		e.events += n.Sim().EventsFired()
	}
	e.events -= ev0
	e.traceEvents, e.violations, _ = chk.finish(-1)
	digestSpan := p.open(spanDigest)
	d0 := time.Now()
	e.digest, err = digestCells(nets)
	e.digestTime = time.Since(d0)
	p.close(digestSpan)
	if err != nil {
		return e, err
	}
	e.model, e.counters = summarize(nets)
	return e, nil
}

// stepCycle runs one cell's kernel to the end of cycle c of a run that
// started at start — the horizon Network.Run(c) would use.
func stepCycle(n *core.Network, start time.Duration, c int) error {
	if err := n.Sim().Run(start + time.Duration(c)*phy.CycleLength + phy.ReverseShift); err != nil {
		if nerr := n.Err(); nerr != nil {
			return nerr
		}
		return err
	}
	return n.Err()
}

// buildCells builds the cell replicas: every network first, then every
// subscriber, all joining at time zero as in BenchmarkSimulationCycle.
func buildCells(w workload, seed uint64, v *variant, chk *checkers) ([]*core.Network, time.Duration, time.Duration, error) {
	t0 := time.Now()
	nets := make([]*core.Network, w.cells)
	for r := range nets {
		cfg := w.config(replicaSeed(seed, r), v)
		if chk != nil {
			cfg.Tracer = chk.tracer(r)
		}
		v.probes.wrapConfig(&cfg, w)
		n, err := core.NewNetwork(cfg)
		if err != nil {
			return nil, 0, 0, err
		}
		nets[r] = n
	}
	t1 := time.Now()
	for _, n := range nets {
		for i := 0; i < w.gps; i++ {
			if _, err := n.AddSubscriber(frame.EIN(1000+i), true, 0); err != nil {
				return nil, 0, 0, err
			}
		}
		for i := 0; i < w.local; i++ {
			if _, err := n.AddSubscriber(frame.EIN(2000+i), false, 0); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	return nets, t1.Sub(t0), time.Since(t1), nil
}

// runCellsReference runs every replica with one Network.Run(total) —
// the drive the stepped loop must reproduce byte for byte.
func runCellsReference(w workload, seed uint64, v *variant) (uint64, int, error) {
	chk := newCheckers(w, v)
	nets, _, _, err := buildCells(w, seed, v, chk)
	if err != nil {
		return 0, 0, err
	}
	for r, n := range nets {
		if err := n.Run(w.warmup + w.cycles); err != nil {
			return 0, 0, fmt.Errorf("replica %d: %w", r, err)
		}
	}
	_, violations, _ := chk.finish(-1)
	d, err := digestCells(nets)
	return d, violations, err
}

// digestCells hashes every cell's metrics snapshot (FNV-1a over the
// JSON bytes), then extra; equal digests mean byte-identical outputs.
func digestCells(nets []*core.Network, extra ...any) (uint64, error) {
	h := fnv.New64a()
	for _, n := range nets {
		snap, err := json.Marshal(n.Metrics().Snapshot())
		if err != nil {
			return 0, err
		}
		if _, err := h.Write(snap); err != nil {
			return 0, err
		}
	}
	fmt.Fprint(h, extra...)
	return h.Sum64(), nil
}

// summarize reduces the cells' metrics to the model statistics and the
// compiled-executor counters.
func summarize(nets []*core.Network) (model, coreCounters) {
	var (
		md              model
		cc              coreCounters
		delaySum        float64
		delayCells      int
		gpsGen, gpsLate uint64
		regWithin, regs float64
	)
	for _, n := range nets {
		m := n.Metrics()
		md.util += m.Utilization()
		if m.MessageDelay.Count() > 0 {
			delaySum += m.MeanDelayCycles(phy.CycleLength)
			delayCells++
		}
		gpsGen += m.GPSGenerated.Value()
		gpsLate += m.GPSDeadlineViolations.Value()
		cnt := float64(m.RegistrationLatency.Count())
		regs += cnt
		regWithin += m.RegistrationWithin(2) * cnt
		cc.cycles += uint64(m.Cycles)
		cc.compiled += m.CompiledCycles.Value()
		cc.fallbacks += m.CompiledFallbacks.Value()
		cc.fbLoss += m.CompiledFallbackLoss.Value()
		cc.fbContention += m.CompiledFallbackContention.Value()
		cc.fbAmendment += m.CompiledFallbackAmendment.Value()
		cc.fbFormat += m.CompiledFallbackFormat.Value()
	}
	md.util /= float64(len(nets))
	if delayCells > 0 {
		md.delay = delaySum / float64(delayCells)
	}
	md.gpsMisses = gpsLate
	if gpsGen > 0 {
		md.gpsOnTime = 1 - float64(gpsLate)/float64(gpsGen)
	}
	if regs > 0 {
		md.regWithin2 = regWithin / regs
	}
	return md, cc
}

// routedAddr is the global address of routed subscriber r in cell c,
// above the cell-local EIN ranges (1000+ GPS, 2000+ data).
func routedAddr(w workload, c, r int) backbone.Address {
	return backbone.Address(20000 + c*w.routed + r)
}

// buildMetro builds the backbone and its subscribers: per cell the GPS
// users first, then the routed users, then the cell-local data users,
// with joins staggered as in experiments.Metro.
func buildMetro(w workload, seed uint64, v *variant, chk *checkers) (*backbone.Internet, time.Duration, time.Duration, error) {
	cfg := w.config(seed, v)
	opts := backbone.Options{Cells: w.cells, WireDelay: phy.CycleLength, Sharded: w.sharded != v.otherEngine}
	if v.checkers {
		opts.CellTracer = chk.tracer
	}
	t0 := time.Now()
	in, err := backbone.NewWithOptions(cfg, opts)
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	for c := 0; c < w.cells; c++ {
		cell := in.Cell(c)
		for i := 0; i < w.gps; i++ {
			if _, err := cell.AddSubscriber(frame.EIN(1000+i), true, time.Duration(i)*time.Second); err != nil {
				return nil, 0, 0, err
			}
		}
		for r := 0; r < w.routed; r++ {
			if _, err := in.AddSubscriber(routedAddr(w, c, r), c, false, time.Duration(r)*500*time.Millisecond); err != nil {
				return nil, 0, 0, err
			}
		}
		for i := 0; i < w.local; i++ {
			if _, err := cell.AddSubscriber(frame.EIN(2000+i), false,
				time.Duration(w.routed+i)*500*time.Millisecond); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	return in, t1.Sub(t0), time.Since(t1), nil
}

// queueCrossCell is the seeded cross-cell traffic generator: every
// routed subscriber that finished registering queues w.xmsgs messages of
// 40–500 bytes to routed subscribers in other cells. Skipped sources are
// the same for every engine, since the post-warm-up state is.
func queueCrossCell(w workload, seed uint64, in *backbone.Internet) error {
	if w.cells < 2 {
		return nil
	}
	rng := sim.NewRNG(seed).Fork("perfbench-crosscell")
	for c := 0; c < w.cells; c++ {
		for r := 0; r < w.routed; r++ {
			src := routedAddr(w, c, r)
			active := in.Subscriber(src).State() == core.StateActive
			for k := 0; k < w.xmsgs; k++ {
				dstCell := (c + 1 + rng.Intn(w.cells-1)) % w.cells
				dst := routedAddr(w, dstCell, rng.Intn(w.routed))
				size := rng.UniformInt(40, 500)
				if !active {
					continue
				}
				if err := in.Send(src, dst, size); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// runMetro makes one Internet.Run call over the measured cycles, as
// experiments.Metro does, but times build, run and digest separately.
// Per-cycle wall samples come from a passive tick event on cell 0's
// kernel at each cycle's horizon; it changes no simulated output. With
// neither samples nor probes it arms no ticks: the differential oracle.
func runMetro(w workload, seed uint64, v *variant, samples *[]time.Duration) (episode, error) {
	e := episode{subs: w.cells * w.subsPerCell(), cycles: w.cycles}
	chk := newCheckers(w, v)
	p := v.probes

	setupSpan := p.open(spanSetup)
	in, tNew, tAdd, err := buildMetro(w, seed, v, chk)
	p.close(setupSpan)
	if err != nil {
		return e, err
	}
	e.setupNew, e.setupAdd = tNew, tAdd
	if err := in.Run(w.warmup); err != nil {
		return e, err
	}
	if err := queueCrossCell(w, seed, in); err != nil {
		return e, err
	}
	fwd0, del0 := in.Forwarded.Value(), in.Delivered.Value()

	ticks := 0
	if samples != nil || p != nil {
		ticks, err = armTicks(w, in, samples, p)
		if err != nil {
			return e, err
		}
	}
	ev0 := metroEvents(in)
	m := startMeter()
	err = in.Run(w.cycles)
	m.stop(&e)
	if err != nil {
		return e, err
	}
	e.events = metroEvents(in) - ev0 - uint64(ticks)
	e.forwarded, e.delivered = in.Forwarded.Value()-fwd0, in.Delivered.Value()-del0
	e.traceEvents, e.violations, e.seamViolations = chk.finish(w.warmup)

	nets := make([]*core.Network, in.Cells())
	for c := range nets {
		nets[c] = in.Cell(c)
	}
	digestSpan := p.open(spanDigest)
	d0 := time.Now()
	e.digest, err = digestMetro(in, nets)
	e.digestTime = time.Since(d0)
	p.close(digestSpan)
	if err != nil {
		return e, err
	}
	e.model, e.counters = summarize(nets)
	return e, nil
}

// armTicks schedules the passive per-cycle observer on cell 0's kernel
// (the shared kernel in serial mode): one tick at each measured cycle's
// horizon, starting one cycle before the first, so consecutive ticks
// bracket exactly one cycle of simulated time.
func armTicks(w workload, in *backbone.Internet, samples *[]time.Duration, p *probes) (int, error) {
	kernel := in.Cell(0).Sim()
	start := in.Now()
	var last time.Time
	for c := 0; c <= w.cycles; c++ {
		at := start + time.Duration(c)*phy.CycleLength + phy.ReverseShift
		if _, err := kernel.At(at, sim.PriorityNormal, func() {
			now := time.Now()
			if c > 0 && samples != nil {
				*samples = append(*samples, now.Sub(last))
			}
			last = now
			p.metroTick(c, w.cycles, in.Cell(0))
		}); err != nil {
			return 0, err
		}
	}
	return w.cycles + 1, nil
}

// metroEvents sums the kernel event counters of a deployment.
func metroEvents(in *backbone.Internet) uint64 {
	if k := in.Kernel(); k != nil {
		return k.EventsFired()
	}
	var n uint64
	for c := 0; c < in.Cells(); c++ {
		n += in.Cell(c).Sim().EventsFired()
	}
	return n
}

// digestMetro hashes every cell's snapshot plus the backbone counters
// and latency samples.
func digestMetro(in *backbone.Internet, nets []*core.Network) (uint64, error) {
	return digestCells(nets, "fwd=", in.Forwarded.Value(), " del=", in.Delivered.Value(),
		" lat=", in.EndToEndLat.Values())
}
