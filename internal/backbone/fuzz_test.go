package backbone

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/osu-netlab/osumac/internal/core"
)

// fuzzCells/fuzzSubs fix the deployment shape; the fuzzer explores the
// cross-cell send schedule and the channel model within it.
const (
	fuzzCells = 3
	fuzzSubs  = 2 // data subscribers per cell
)

// fuzzOutcome runs a fuzzer-chosen send schedule on one engine. Each
// schedule byte encodes one action: the low bits pick (src, dst, size)
// and every fourth byte also advances the clock by a Run segment, so
// the fuzzer controls both the merge pressure (many sends at one
// instant) and the phase structure (sends straddling Run boundaries).
func fuzzOutcome(t *testing.T, schedule []byte, channel twinChannel, sharded bool) twinOutcome {
	t.Helper()
	buf := &core.TraceBuffer{Cap: 1 << 20}
	s := twinScenario{cells: fuzzCells, gps: 0, data: fuzzSubs, load: 0.5,
		seed: 1331, wire: 45 * time.Millisecond, channel: channel}
	in := buildTwin(t, s, sharded, buf, nil)
	var out twinOutcome
	record := func(err error) {
		if err != nil && out.runErr == "" {
			out.runErr = err.Error()
		}
	}
	record(in.Run(2)) // settle: subscribers join, queues warm up
	for k, b := range schedule {
		if out.runErr != "" {
			break
		}
		src := dataAddr(int(b)%fuzzCells, int(b>>2)%fuzzSubs)
		dst := dataAddr(int(b>>3)%fuzzCells, int(b>>5)%fuzzSubs)
		size := 40 + int(b>>1)*7
		if err := in.Send(src, dst, size); err != nil {
			out.sendErrs = append(out.sendErrs, err.Error())
		}
		if k%4 == 3 {
			record(in.Run(1 + int(b)%3))
		}
	}
	if out.runErr == "" {
		record(in.Run(3)) // drain: every wire delay elapses
	}
	for c := 0; c < fuzzCells; c++ {
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

// FuzzShardExchange feeds randomized cross-cell send schedules, on an
// ideal, IID or Gilbert-Elliott channel (channel mod 3), to both
// engines and requires byte-identical outcomes: metrics snapshots,
// trace streams, exchange counters, latency sample order, and error
// strings. Any scheduling-order leak in the barrier/merge machinery
// shows up as a divergence here.
func FuzzShardExchange(f *testing.F) {
	f.Add([]byte{}, uint8(chanIdeal))
	f.Add([]byte{0x00}, uint8(chanIdeal))
	f.Add([]byte{0x07, 0x2a, 0x93, 0xff}, uint8(chanIdeal))
	f.Add([]byte{0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01}, uint8(chanIdeal))
	f.Add([]byte{0xf0, 0x0f, 0x55, 0xaa, 0x3c, 0xc3, 0x99, 0x66, 0x12, 0xed}, uint8(chanIdeal))
	f.Add([]byte{0x07, 0x2a, 0x93, 0xff}, uint8(chanIID))
	f.Add([]byte{0xf0, 0x0f, 0x55, 0xaa, 0x3c, 0xc3, 0x99, 0x66, 0x12, 0xed}, uint8(chanGE))
	f.Fuzz(func(t *testing.T, schedule []byte, channel uint8) {
		if len(schedule) > 24 {
			schedule = schedule[:24] // bound per-exec simulated time
		}
		ch := twinChannel(channel % uint8(numChannels))
		serial := fuzzOutcome(t, schedule, ch, false)
		sharded := fuzzOutcome(t, schedule, ch, true)
		compareOutcomes(t, "fuzz sharded vs serial", serial, sharded)
	})
}
