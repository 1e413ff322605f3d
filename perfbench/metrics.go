package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/rs"
)

// subCycles is the subscriber-cycle count of one episode's measured run.
func (e episode) subCycles() float64 { return float64(e.subs) * float64(e.cycles) }

// values returns f of every episode.
func values(eps []episode, f func(e episode) float64) []float64 {
	xs := make([]float64, len(eps))
	for i, e := range eps {
		xs[i] = f(e)
	}
	return xs
}

// perEpisode returns the median over episodes of f.
func perEpisode(eps []episode, f func(e episode) float64) float64 { return median(values(eps, f)) }

// atRef converts a wall time of episode e to reference speed (see
// calibrate.go).
func atRef(e episode, d time.Duration) float64 {
	return float64(d.Nanoseconds()) * refKernelNs / float64(e.ref.Nanoseconds())
}

// nsPerSubCycle is the median over episodes of the measured run's
// reference-speed ns per subscriber-cycle.
func nsPerSubCycle(eps []episode) float64 {
	return perEpisode(eps, func(e episode) float64 { return atRef(e, e.run) / e.subCycles() })
}

// endToEnd derives the end-to-end metrics from the untraced run.
func endToEnd(rs *runSet, rssMB float64) []metric {
	if len(rs.eps) == 0 {
		return nil
	}
	md := rs.eps[0].model
	return []metric{
		{"setup_s", perEpisode(rs.eps, func(e episode) float64 { return atRef(e, e.setupNew+e.setupAdd) / 1e9 }), "s"},
		{"ns_per_sub_cycle", nsPerSubCycle(rs.eps), "ns"},
		{"cycle_p50_us", perEpisode(rs.eps, func(e episode) float64 { return atRef(e, e.cycleP50) / 1e3 }), "us"},
		{"cycle_p99_us", perEpisode(rs.eps, func(e episode) float64 { return atRef(e, e.cycleP99) / 1e3 }), "us"},
		{"allocs_per_sub_cycle", perEpisode(rs.eps, func(e episode) float64 { return float64(e.mallocs) / e.subCycles() }), "count"},
		{"bytes_per_sub_cycle", perEpisode(rs.eps, func(e episode) float64 { return float64(e.allocBytes) / e.subCycles() }), "B"},
		{"peak_rss_mb", rssMB, "MB"},
		{"model_util", md.util, "share"},
		{"model_gps_ontime", md.gpsOnTime, "share"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the per-layer metrics: host rates from the untraced
// run, counts and self times from the traced run's spans and probes,
// codec costs from replaying what the probes captured.
func perLayer(w workload, plain, traced *runSet, p *probes) []metric {
	if len(plain.eps) == 0 || len(traced.eps) == 0 {
		return nil
	}
	e0 := plain.eps[0]
	cc := e0.counters
	cycles := float64(cc.cycles)
	measured := e0.subCycles()

	var tracedCycles, traceEvents float64
	for _, e := range traced.eps {
		tracedCycles += float64(e.counters.cycles)
		traceEvents += float64(e.traceEvents)
	}
	sp := spanStats(p)
	rp := replay(p)

	var gcCount, gcPause, cpu, wall float64
	for _, e := range plain.eps {
		gcCount += float64(e.numGC)
		gcPause += float64(e.gcPause) / 1e6
		cpu += e.cpu.Seconds()
		wall += e.run.Seconds()
	}
	codewords := float64(p.codewords[phy.Forward] + p.codewords[phy.Reverse])

	return []metric{
		{"sim.events_per_sub_cycle", float64(e0.events) / measured, "count"},
		{"sim.ns_per_event", perEpisode(plain.eps, func(e episode) float64 { return ratio(float64(e.run.Nanoseconds()), float64(e.events)) }), "ns"},

		{"core.compiled_cycle_share", ratio(float64(cc.compiled-cc.fallbacks), cycles), "share"},
		{"core.fallbacks_per_cycle.loss", ratio(float64(cc.fbLoss), cycles), "count"},
		{"core.fallbacks_per_cycle.contention", ratio(float64(cc.fbContention), cycles), "count"},
		{"core.fallbacks_per_cycle.amendment", ratio(float64(cc.fbAmendment), cycles), "count"},
		{"core.fallbacks_per_cycle.format", ratio(float64(cc.fbFormat), cycles), "count"},
		{"core.cycle_self_us", sp.cycleSelfUs, "us"},
		{"core.reg_within2", e0.model.regWithin2, "share"},
		{"core.delay_cycles", e0.model.delay, "cycles"},
		{"core.gps_misses", float64(e0.model.gpsMisses), "count"},

		{"sched.calls_per_cycle", ratio(float64(p.schedCalls), tracedCycles), "count"},
		{"sched.ns_per_call", sp.schedNs, "ns"},
		{"sched.requests_per_call", ratio(float64(p.schedReqs), float64(p.schedCalls)), "count"},
		{"sched.fill_ratio", ratio(float64(p.slotsAssigned), float64(p.slotsAvail)), "share"},

		{"phy.codewords_per_cycle.fwd", ratio(float64(p.codewords[phy.Forward]), tracedCycles), "count"},
		{"phy.codewords_per_cycle.rev", ratio(float64(p.codewords[phy.Reverse]), tracedCycles), "count"},
		{"phy.corrupt_ns", sp.corruptNs, "ns"},
		{"phy.corrupted_share", ratio(float64(p.corrupted), codewords), "share"},

		{"rs.encode_ns", rp.encodeNs, "ns"},
		{"rs.decode_ns.clean", rp.decodeCleanNs, "ns"},
		{"rs.decode_ns.corrected", rp.decodeCorrectedNs, "ns"},
		{"rs.decode_ns.failed", rp.decodeFailedNs, "ns"},
		{"rs.uncorrectable_share", rp.failedShareOfCorrupted * ratio(float64(p.corrupted), codewords), "share"},

		{"frame.cf_encode_ns", rp.cfEncodeNs, "ns"},
		{"frame.cf_decode_ns", rp.cfDecodeNs, "ns"},
		{"frame.pkt_unmarshal_ns", rp.pktUnmarshalNs, "ns"},

		{"backbone.setup.new_ns_per_cell", perEpisode(plain.eps, func(e episode) float64 { return float64(e.setupNew.Nanoseconds()) / float64(w.cells) }), "ns"},
		{"backbone.setup.add_sub_ns", perEpisode(plain.eps, func(e episode) float64 { return float64(e.setupAdd.Nanoseconds()) / float64(e.subs) }), "ns"},
		{"backbone.forwarded_per_cycle", float64(e0.forwarded) / float64(e0.cycles), "count"},
		{"backbone.delivered_per_cycle", float64(e0.delivered) / float64(e0.cycles), "count"},
		{"backbone.digest_s", perEpisode(plain.eps, func(e episode) float64 { return e.digestTime.Seconds() }), "s"},
		{"backbone.cpu_per_wall", ratio(cpu, wall), "ratio"},

		{"host.ref_kernel_us", perEpisode(plain.eps, func(e episode) float64 { return float64(e.ref.Nanoseconds()) / 1e3 }), "us"},
		{"host.wall_ns_per_sub_cycle", perEpisode(plain.eps, func(e episode) float64 { return float64(e.run.Nanoseconds()) / e.subCycles() }), "ns"},

		{"runtime.gc_count", gcCount, "count"},
		{"runtime.gc_pause_ms", gcPause, "ms"},

		{"trace.overhead_ratio", ratio(nsPerSubCycle(traced.eps), nsPerSubCycle(plain.eps)), "ratio"},
		{"trace.events_per_cycle", ratio(traceEvents, tracedCycles), "count"},
		{"trace.conformance.violations", float64(traced.eps[0].violations), "count"},
		{"trace.conformance.seam_violations", float64(traced.eps[0].seamViolations), "count"},
	}
}

// spanDerived holds the numbers derived from the recorded spans.
type spanDerived struct {
	cycleSelfUs, schedNs, corruptNs float64
}

// spanStats derives self and call times from the spans: a cycle's self
// time is its duration minus the time its sched/phy children cover.
func spanStats(p *probes) spanDerived {
	childNs := make(map[int32]int64)
	var (
		schedNs, corruptNs int64
		schedN, corruptN   int64
		cycleNs, cycleN    int64
	)
	for _, s := range p.spans {
		d := s.end - s.start
		switch s.kind {
		case spanSched:
			schedNs += d
			schedN++
			childNs[s.parent] += d
		case spanCorrupt:
			corruptNs += d
			corruptN++
			childNs[s.parent] += d
		}
	}
	for i, s := range p.spans {
		if s.kind == spanCycle && s.end > 0 {
			cycleNs += s.end - s.start - childNs[int32(i)]
			cycleN++
		}
	}
	return spanDerived{
		cycleSelfUs: ratio(float64(cycleNs), float64(cycleN)) / 1e3,
		schedNs:     ratio(float64(schedNs), float64(schedN)),
		corruptNs:   ratio(float64(corruptNs), float64(corruptN)),
	}
}

// replayed holds per-operation costs of the codec layers.
type replayed struct {
	encodeNs, decodeCleanNs, decodeCorrectedNs, decodeFailedNs float64
	failedShareOfCorrupted                                     float64
	cfEncodeNs, cfDecodeNs, pktUnmarshalNs                     float64
}

// replayBudget is the minimum wall time each replay loop runs for.
const replayBudget = 20 * time.Millisecond

// timeOps runs f over [0,n) in passes until replayBudget has passed and
// returns the mean ns per call; 0 when n is 0.
func timeOps(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < replayBudget {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// replay times the RS code and the frame codecs on what the traced run
// captured: each cycle's real control fields, and the codewords the
// error-model probe saw sent and received.
func replay(p *probes) replayed {
	var out replayed
	code := rs.NewPaperCode()
	codec := frame.NewCodec()

	var cfs []*frame.ControlFields
	var airs [][]byte
	for _, info := range p.cfs {
		cf, err := frame.UnmarshalControlFields(info)
		if err != nil {
			continue
		}
		air, err := codec.EncodeControlFields(cf)
		if err != nil {
			continue
		}
		cfs, airs = append(cfs, cf), append(airs, air)
	}
	buf := make([]byte, 0, frame.ControlFieldAirBytes)
	out.cfEncodeNs = timeOps(len(cfs), func(i int) { buf, _ = codec.EncodeControlFieldsTo(buf[:0], cfs[i]) })
	out.cfDecodeNs = timeOps(len(airs), func(i int) { _, _ = codec.DecodeControlFields(airs[i]) })

	// Clean codewords: the control-field codewords plus the probe's
	// clean captures. Their information blocks feed the encoder.
	var clean [][]byte
	for _, air := range airs {
		for off := 0; off < len(air); off += phy.CodewordBytes {
			clean = append(clean, air[off:off+phy.CodewordBytes])
		}
	}
	var packets [][]byte
	for i := range p.clean {
		pair := &p.clean[i]
		clean = append(clean, pair.orig[:])
		if pair.dir == phy.Reverse {
			packets = append(packets, pair.orig[:phy.CodewordInfoBytes])
		}
	}
	cw := make([]byte, 0, phy.CodewordBytes)
	out.encodeNs = timeOps(len(clean), func(i int) { cw, _ = code.EncodeTo(cw[:0], clean[i][:phy.CodewordInfoBytes]) })
	dec := make([]byte, 0, phy.CodewordBytes)
	out.decodeCleanNs = timeOps(len(clean), func(i int) { dec, _ = code.DecodeTo(dec[:0], clean[i]) })
	out.pktUnmarshalNs = timeOps(len(packets), func(i int) { _, _ = frame.UnmarshalPacket(packets[i]) })

	var corrected, failed [][]byte
	for i := range p.dirty {
		rx := p.dirty[i].rx[:]
		if _, err := code.DecodeTo(dec[:0], rx); err != nil {
			failed = append(failed, rx)
		} else {
			corrected = append(corrected, rx)
		}
	}
	out.decodeCorrectedNs = timeOps(len(corrected), func(i int) { dec, _ = code.DecodeTo(dec[:0], corrected[i]) })
	out.decodeFailedNs = timeOps(len(failed), func(i int) { _, _ = code.DecodeTo(dec[:0], failed[i]) })
	out.failedShareOfCorrupted = ratio(float64(len(failed)), float64(len(p.dirty)))
	return out
}

// processCPU is the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printHost prints the host facts every result is recorded with.
func printHost(w workload, seed uint64) {
	facts := map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
	}
	b, _ := json.Marshal(facts) // a map of plain values always marshals
	fmt.Println("host", string(b))
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
