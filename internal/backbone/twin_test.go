package backbone

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/osu-netlab/osumac/internal/conformance"
	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/traffic"
)

// twinScenario is one differential-test configuration: the same
// deployment is run on the serial oracle and the sharded engine and
// every observable output must match byte for byte.
type twinScenario struct {
	cells     int
	gps, data int // subscribers per cell
	load      float64
	seed      uint64
	warm      int // settle cycles before cross-traffic is injected
	main      int // measured cycles
	wire      time.Duration
	lookahead time.Duration // 0: WireDelay
	sends     int           // ring-pattern cross-cell messages
	channel   twinChannel
}

func (s twinScenario) String() string {
	return fmt.Sprintf("cells=%d gps=%d data=%d load=%.1f seed=%d wire=%v la=%v sends=%d ch=%v",
		s.cells, s.gps, s.data, s.load, s.seed, s.wire, s.lookahead, s.sends, s.channel)
}

// twinChannel is the grid's channel-model axis. On an ideal channel
// every cycle stays on the compiled fast path; on a noisy one the
// compiled table runs the slow wire handlers (RS corrections, decode
// failures, retransmissions) interleaved with heap events every cycle.
type twinChannel uint8

const (
	chanIdeal twinChannel = iota
	chanIID
	chanGE
	numChannels
)

func (c twinChannel) String() string {
	switch c {
	case chanIID:
		return "iid"
	case chanGE:
		return "ge"
	}
	return "ideal"
}

// apply installs the channel's error models on both links. The
// Gilbert-Elliott parameters are the registration example's.
func (c twinChannel) apply(cfg *core.Config) {
	switch c {
	case chanIID:
		cfg.NewReverseModel = func() phy.ErrorModel { return phy.IID{P: 0.08} }
		cfg.NewForwardModel = func() phy.ErrorModel { return phy.IID{P: 0.05} }
	case chanGE:
		cfg.NewReverseModel = func() phy.ErrorModel { return phy.NewGilbertElliott(0.004, 0.12, 0.0005, 0.6) }
		cfg.NewForwardModel = func() phy.ErrorModel { return phy.NewGilbertElliott(0.002, 0.15, 0.0002, 0.6) }
	}
}

// twinOutcome is everything a run exposes, in comparable form.
type twinOutcome struct {
	cellSnaps []string // per-cell metrics snapshot JSON
	cellErrs  []string // per-cell core run errors
	traces    []core.TraceEvent
	forwarded uint64
	delivered uint64
	latVals   []float64
	latSum    float64
	sendErrs  []string
	reports   []string // per-cell conformance reports
	runErr    string
	losses    uint64 // packets and control fields lost, mostly to the channel
}

// dataAddr returns the global address of data subscriber i in cell c.
func dataAddr(c, i int) Address { return Address(10000 + c*64 + i) }

// buildTwin constructs the deployment for a scenario on one engine.
func buildTwin(t *testing.T, s twinScenario, sharded bool, tracer core.Tracer, cellTracer func(int) core.Tracer) *Internet {
	t.Helper()
	cfg := core.NewConfig()
	cfg.Seed = s.seed
	cfg.Tracer = tracer
	s.channel.apply(&cfg)
	if s.load > 0 && s.data > 0 {
		dataSlots := phy.Format1DataSlots
		if s.gps <= phy.Format2GPSSlots {
			dataSlots = phy.Format2DataSlots
		}
		cfg.MeanInterarrival = traffic.InterarrivalForSlots(
			s.load, s.data, cfg.SizeDist, frame.MaxPayload, phy.CycleLength, dataSlots)
	}
	in, err := NewWithOptions(cfg, Options{
		Cells:      s.cells,
		WireDelay:  s.wire,
		Sharded:    sharded,
		Lookahead:  s.lookahead,
		CellTracer: cellTracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < s.cells; c++ {
		for i := 0; i < s.gps; i++ {
			if _, err := in.AddSubscriber(Address(1000+c*8+i), c, true, time.Duration(i)*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < s.data; i++ {
			if _, err := in.AddSubscriber(dataAddr(c, i), c, false, time.Duration(i)*500*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	return in
}

// runTwin executes a scenario on one engine and collects the outcome.
func runTwin(t *testing.T, s twinScenario, sharded bool) twinOutcome {
	t.Helper()
	buf := &core.TraceBuffer{Cap: 1 << 21}
	checkers := make([]*conformance.Checker, s.cells)
	cellTracer := func(cell int) core.Tracer {
		checkers[cell] = conformance.New(conformance.Options{
			DeadlineMustHold:   true,
			DynamicSlots:       true,
			SecondControlField: true,
		})
		return checkers[cell]
	}
	in := buildTwin(t, s, sharded, buf, cellTracer)
	var out twinOutcome
	record := func(err error) {
		if err != nil && out.runErr == "" {
			out.runErr = err.Error()
		}
	}
	record(in.Run(s.warm))
	for k := 0; k < s.sends && out.runErr == ""; k++ {
		src := dataAddr(k%s.cells, k%s.data)
		dst := dataAddr((k+1)%s.cells, (k/s.cells)%s.data)
		size := 60 + 40*(k%9)
		if err := in.Send(src, dst, size); err != nil {
			out.sendErrs = append(out.sendErrs, fmt.Sprintf("send %d: %v", k, err))
		}
	}
	if out.runErr == "" {
		record(in.Run(s.main))
	}
	for c := 0; c < s.cells; c++ {
		snap, err := json.Marshal(in.Cell(c).Metrics().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		out.cellSnaps = append(out.cellSnaps, string(snap))
		cellErr := ""
		if err := in.Cell(c).Err(); err != nil {
			cellErr = err.Error()
		}
		out.cellErrs = append(out.cellErrs, cellErr)
		m := in.Cell(c).Metrics()
		out.losses += m.FragmentsLost.Value() + m.GPSLost.Value() + m.CFDecodeFailures.Value()
		var rep strings.Builder
		if err := checkers[c].Finish().WriteText(&rep); err != nil {
			t.Fatal(err)
		}
		out.reports = append(out.reports, rep.String())
	}
	out.traces = buf.Events()
	out.forwarded = in.Forwarded.Value()
	out.delivered = in.Delivered.Value()
	out.latVals = in.EndToEndLat.Values()
	out.latSum = in.EndToEndLat.Sum()
	return out
}

// compareOutcomes asserts byte-identity of two engine outcomes.
func compareOutcomes(t *testing.T, label string, a, b twinOutcome) {
	t.Helper()
	if a.runErr != b.runErr {
		t.Fatalf("%s: run errors differ: %q vs %q", label, a.runErr, b.runErr)
	}
	if len(a.sendErrs) != len(b.sendErrs) {
		t.Fatalf("%s: send errors differ: %v vs %v", label, a.sendErrs, b.sendErrs)
	}
	for i := range a.sendErrs {
		if a.sendErrs[i] != b.sendErrs[i] {
			t.Fatalf("%s: send error %d differs: %q vs %q", label, i, a.sendErrs[i], b.sendErrs[i])
		}
	}
	if a.forwarded != b.forwarded || a.delivered != b.delivered {
		t.Fatalf("%s: backbone counters differ: fwd %d/%d del %d/%d",
			label, a.forwarded, b.forwarded, a.delivered, b.delivered)
	}
	if a.latSum != b.latSum || len(a.latVals) != len(b.latVals) {
		t.Fatalf("%s: latency samples differ: n=%d/%d sum=%v/%v",
			label, len(a.latVals), len(b.latVals), a.latSum, b.latSum)
	}
	for i := range a.latVals {
		if a.latVals[i] != b.latVals[i] {
			t.Fatalf("%s: latency value %d differs: %v vs %v", label, i, a.latVals[i], b.latVals[i])
		}
	}
	for c := range a.cellSnaps {
		if a.cellSnaps[c] != b.cellSnaps[c] {
			t.Fatalf("%s: cell %d metrics snapshot differs:\nA: %s\nB: %s",
				label, c, a.cellSnaps[c], b.cellSnaps[c])
		}
		if a.cellErrs[c] != b.cellErrs[c] {
			t.Fatalf("%s: cell %d error differs: %q vs %q", label, c, a.cellErrs[c], b.cellErrs[c])
		}
		if a.reports[c] != b.reports[c] {
			t.Fatalf("%s: cell %d conformance report differs:\nA:\n%s\nB:\n%s",
				label, c, a.reports[c], b.reports[c])
		}
	}
	if len(a.traces) != len(b.traces) {
		t.Fatalf("%s: trace stream lengths differ: %d vs %d", label, len(a.traces), len(b.traces))
	}
	for i := range a.traces {
		if a.traces[i] != b.traces[i] {
			t.Fatalf("%s: trace event %d differs:\nA: %+v\nB: %+v", label, i, a.traces[i], b.traces[i])
		}
	}
}

// twinGrid is the differential battery's scenario grid: every
// deployment shape on every channel model.
func twinGrid(short bool) []twinScenario {
	shapes := []twinScenario{
		{cells: 2, gps: 1, data: 2, load: 0.5, seed: 1, warm: 4, main: 10, wire: 30 * time.Millisecond, sends: 4},
		{cells: 3, gps: 2, data: 3, load: 0.8, seed: 42, warm: 4, main: 12, wire: 250 * time.Millisecond, sends: 9},
		{cells: 4, gps: 0, data: 4, load: 1.0, seed: 8188083318138684029, warm: 5, main: 10, wire: phy.CycleLength, sends: 12},
	}
	if !short {
		shapes = append(shapes,
			twinScenario{cells: 2, gps: 4, data: 6, load: 0.9, seed: 7, warm: 6, main: 25, wire: 100 * time.Millisecond, sends: 16},
			twinScenario{cells: 6, gps: 1, data: 2, load: 0.5, seed: 99, warm: 4, main: 20, wire: 50 * time.Millisecond, lookahead: 20 * time.Millisecond, sends: 24},
			twinScenario{cells: 3, gps: 3, data: 4, load: 1.1, seed: 3, warm: 5, main: 30, wire: time.Second, sends: 18},
		)
	}
	var grid []twinScenario
	for _, s := range shapes {
		for ch := chanIdeal; ch < numChannels; ch++ {
			s.channel = ch
			grid = append(grid, s)
		}
	}
	return grid
}

// TestTwinShardedMatchesSerial is the core differential battery:
// sharded-vs-single-kernel byte-identity over a (cells × subscribers ×
// loads × seeds) grid, comparing metrics snapshots, trace streams, and
// per-cell conformance reports.
func TestTwinShardedMatchesSerial(t *testing.T) {
	for _, s := range twinGrid(testing.Short()) {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			serial := runTwin(t, s, false)
			sharded := runTwin(t, s, true)
			compareOutcomes(t, "sharded vs serial", serial, sharded)
			if len(serial.traces) == 0 {
				t.Fatal("empty trace stream; the comparison proved nothing")
			}
			if s.sends > 0 && serial.forwarded == 0 {
				t.Fatal("no cross-cell traffic forwarded; the exchange path was not exercised")
			}
			if s.channel != chanIdeal && serial.losses == 0 {
				t.Fatalf("the %v channel destroyed nothing; the noisy paths were not exercised", s.channel)
			}
		})
	}
}

// TestTwinGOMAXPROCS pins scheduler independence: the sharded engine
// must produce identical bytes at GOMAXPROCS=1 and GOMAXPROCS=N.
func TestTwinGOMAXPROCS(t *testing.T) {
	s := twinScenario{cells: 4, gps: 2, data: 3, load: 0.8, seed: 42,
		warm: 4, main: 12, wire: 120 * time.Millisecond, sends: 10}
	prev := runtime.GOMAXPROCS(1)
	one := runTwin(t, s, true)
	runtime.GOMAXPROCS(8)
	many := runTwin(t, s, true)
	runtime.GOMAXPROCS(prev)
	compareOutcomes(t, "GOMAXPROCS 1 vs 8", one, many)
}

// TestTwinFlakeDetector requires three consecutive identical sharded
// runs: a scheduler-dependent leak shows up as run-to-run jitter long
// before it shows up against the oracle.
func TestTwinFlakeDetector(t *testing.T) {
	s := twinScenario{cells: 3, gps: 1, data: 3, load: 0.9, seed: 11,
		warm: 4, main: 10, wire: 80 * time.Millisecond, sends: 8}
	first := runTwin(t, s, true)
	for rep := 1; rep < 3; rep++ {
		again := runTwin(t, s, true)
		compareOutcomes(t, fmt.Sprintf("run 0 vs run %d", rep), first, again)
	}
}

// TestTwinLookaheadInvariance: every legal barrier window length must
// produce the same bytes — the window is a performance knob, not a
// semantic one.
func TestTwinLookaheadInvariance(t *testing.T) {
	base := twinScenario{cells: 3, gps: 1, data: 2, load: 0.7, seed: 5,
		warm: 4, main: 10, wire: 200 * time.Millisecond, sends: 6}
	ref := runTwin(t, base, true)
	for _, la := range []time.Duration{200 * time.Millisecond, 70 * time.Millisecond, time.Millisecond} {
		s := base
		s.lookahead = la
		got := runTwin(t, s, true)
		compareOutcomes(t, fmt.Sprintf("lookahead %v", la), ref, got)
	}
}

// TestShardedValidation pins the sharded-engine constructor contract.
func TestShardedValidation(t *testing.T) {
	cfg := core.NewConfig()
	if _, err := NewWithOptions(cfg, Options{Cells: 2, Sharded: true}); err == nil {
		t.Fatal("sharded mode without WireDelay accepted")
	}
	if _, err := NewWithOptions(cfg, Options{Cells: 2, Sharded: true,
		WireDelay: 10 * time.Millisecond, Lookahead: 20 * time.Millisecond}); err == nil {
		t.Fatal("lookahead beyond WireDelay accepted")
	}
	in, err := NewWithOptions(cfg, Options{Cells: 2, Sharded: true, WireDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !in.Sharded() || in.Kernel() != nil {
		t.Fatal("sharded deployment must report Sharded and expose no shared kernel")
	}
	if in.Now() != 0 {
		t.Fatalf("fresh deployment Now() = %v", in.Now())
	}
}

// TestCellErrorSerial: a mid-flight cell failure on the serial engine
// surfaces as a *CellError naming the cell and failure time.
func TestCellErrorSerial(t *testing.T) {
	in := newInternet(t, 3)
	boom := errors.New("injected fault")
	failAt := 5 * time.Second
	cell := in.Cell(2)
	cell.Sim().After(failAt, func() { cell.Abort("twin-test", boom) })
	err := in.Run(4)
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CellError", err)
	}
	if ce.Cell != 2 {
		t.Fatalf("failed cell = %d, want 2", ce.Cell)
	}
	if ce.At != failAt {
		t.Fatalf("failure time = %v, want %v", ce.At, failAt)
	}
	if !errors.Is(err, boom) {
		t.Fatal("CellError must unwrap to the injected cause")
	}
	var ie *core.InternalError
	if !errors.As(err, &ie) {
		t.Fatal("CellError must unwrap to the cell's *core.InternalError")
	}
}

// TestCellErrorSharded: the same failure surfacing contract holds on
// the sharded engine, where the other shards keep their window-local
// partial progress.
func TestCellErrorSharded(t *testing.T) {
	cfg := core.NewConfig()
	cfg.Seed = 5
	in, err := NewWithOptions(cfg, Options{Cells: 3, WireDelay: 30 * time.Millisecond, Sharded: true})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected fault")
	failAt := 5 * time.Second
	cell := in.Cell(1)
	cell.Sim().After(failAt, func() { cell.Abort("twin-test", boom) })
	runErr := in.Run(4)
	var ce *CellError
	if !errors.As(runErr, &ce) {
		t.Fatalf("err = %v, want *CellError", runErr)
	}
	if ce.Cell != 1 {
		t.Fatalf("failed cell = %d, want 1", ce.Cell)
	}
	if ce.At != failAt {
		t.Fatalf("failure time = %v, want %v", ce.At, failAt)
	}
	if !errors.Is(runErr, boom) {
		t.Fatal("CellError must unwrap to the injected cause")
	}
	// The healthy cells advanced to (at least) the barrier before the
	// failing window — their partial progress is not discarded.
	if in.Cell(0).Cycle() == 0 || in.Cell(2).Cycle() == 0 {
		t.Fatal("healthy shards lost their partial progress")
	}
}

// TestShardedMultiRunSegments: segmented Run calls with between-run
// sends must match one long serial run of the same segmentation.
func TestShardedMultiRunSegments(t *testing.T) {
	run := func(sharded bool) twinOutcome {
		buf := &core.TraceBuffer{Cap: 1 << 20}
		s := twinScenario{cells: 2, gps: 0, data: 2, load: 0.6, seed: 17,
			wire: 40 * time.Millisecond}
		in := buildTwin(t, s, sharded, buf, nil)
		var out twinOutcome
		for seg := 0; seg < 3; seg++ {
			if err := in.Run(4); err != nil {
				t.Fatal(err)
			}
			if err := in.Send(dataAddr(0, seg%2), dataAddr(1, seg%2), 150); err != nil {
				out.sendErrs = append(out.sendErrs, err.Error())
			}
		}
		if err := in.Run(8); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 2; c++ {
			snap, err := json.Marshal(in.Cell(c).Metrics().Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			out.cellSnaps = append(out.cellSnaps, string(snap))
			out.cellErrs = append(out.cellErrs, "")
			out.reports = append(out.reports, "")
		}
		out.traces = buf.Events()
		out.forwarded = in.Forwarded.Value()
		out.delivered = in.Delivered.Value()
		out.latVals = in.EndToEndLat.Values()
		out.latSum = in.EndToEndLat.Sum()
		return out
	}
	compareOutcomes(t, "segmented", run(false), run(true))
}
