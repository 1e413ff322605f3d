package core_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"github.com/osu-netlab/osumac/internal/core"
	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/obs"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/traffic"
)

var updateWireDigests = flag.Bool("update-wire-digests", false,
	"rewrite testdata/wire_digests.json from the current code")

const wireDigestFile = "testdata/wire_digests.json"

// wireChannels are the lossy link models the pinned digests cover. The
// Gilbert–Elliott parameters are the registration example's.
var wireChannels = []struct {
	name     string
	fwd, rev func() phy.ErrorModel
}{
	{"iid",
		func() phy.ErrorModel { return phy.IID{P: 0.06} },
		func() phy.ErrorModel { return phy.IID{P: 0.06} }},
	{"ge",
		func() phy.ErrorModel { return phy.NewGilbertElliott(0.002, 0.15, 0.0002, 0.6) },
		func() phy.ErrorModel { return phy.NewGilbertElliott(0.004, 0.12, 0.0005, 0.6) }},
	{"awgn",
		func() phy.ErrorModel { return phy.NewAWGN(4.5) },
		func() phy.ErrorModel { return phy.NewAWGN(4.5) }},
	{"tworegime",
		func() phy.ErrorModel { return phy.TwoRegime{PLoss: 0.04, MaxCorrectable: 8} },
		func() phy.ErrorModel { return phy.TwoRegime{PLoss: 0.04, MaxCorrectable: 8} }},
}

// wireRun is one pinned scenario's outcome.
type wireRun struct {
	digest string
	snap   core.Snapshot
}

// runWireScenario runs the busy cell (4 GPS + 10 data users at ρ≈0.9,
// plus a steady forward stream) over one lossy channel model and
// digests the metric snapshot and the full JSONL trace stream.
func runWireScenario(t *testing.T, fwd, rev func() phy.ErrorModel, cf2 bool, seed uint64) wireRun {
	t.Helper()
	var trace bytes.Buffer
	sink := obs.NewJSONLSink(&trace)
	cfg := core.NewConfig()
	cfg.Seed = seed
	cfg.SecondControlField = cf2
	cfg.NewForwardModel, cfg.NewReverseModel = fwd, rev
	cfg.MeanInterarrival = traffic.InterarrivalForSlots(0.9, 10, traffic.PaperVariable,
		frame.MaxPayload, phy.CycleLength, phy.Format1DataSlots)
	cfg.Tracer = sink
	n, err := core.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var data []*core.Subscriber
	for i := 0; i < 4; i++ {
		if _, err := n.AddSubscriber(frame.EIN(1000+i), true, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		sub, err := n.AddSubscriber(frame.EIN(2000+i), false, 0)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, sub)
	}
	// Forward traffic: every half cycle one active data user in turn is
	// sent a multi-fragment message.
	next := 0
	if _, err := n.Sim().Every(phy.CycleLength/2, func() {
		for range data {
			sub := data[next%len(data)]
			next++
			if sub.State() == core.StateActive {
				if err := n.SendToSubscriber(sub, 60+next%120); err != nil {
					t.Error(err)
				}
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(150); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := n.Metrics().Snapshot()
	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(js)
	h.Write(trace.Bytes())
	return wireRun{digest: fmt.Sprintf("%016x", h.Sum64()), snap: snap}
}

// TestWireDigests pins the event path's output on lossy channels: the
// metric snapshot and the full trace of a busy cell, crossed over four
// channel models, CF2 on and off, and two seeds. The digests were
// recorded before the wire shortcut (reusing the sender's parsed value
// when the received bytes are intact) existed, so they prove the
// shortcut exact. Regenerate only for an intended behaviour change:
//
//	go test ./internal/core -run TestWireDigests -update-wire-digests
func TestWireDigests(t *testing.T) {
	want := map[string]string{}
	if !*updateWireDigests {
		raw, err := os.ReadFile(wireDigestFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	for _, ch := range wireChannels {
		for _, cf2 := range []bool{true, false} {
			for _, seed := range []uint64{3, 7919} {
				name := fmt.Sprintf("%s/cf2=%t/seed=%d", ch.name, cf2, seed)
				t.Run(name, func(t *testing.T) {
					r := runWireScenario(t, ch.fwd, ch.rev, cf2, seed)
					got[name] = r.digest
					// A scenario that went clean would pin nothing about
					// the lossy branches.
					for _, c := range []struct {
						what string
						v    uint64
					}{
						{"CF decode failures", r.snap.CFDecodeFailures},
						{"fragments lost", r.snap.FragmentsLost},
						{"contention collisions", r.snap.ContentionCollisions},
						{"forward packets delivered", r.snap.ForwardDelivered},
					} {
						if c.v == 0 {
							t.Errorf("%s: no %s", name, c.what)
						}
					}
					if *updateWireDigests {
						return
					}
					if w, ok := want[name]; !ok {
						t.Errorf("%s: no pinned digest", name)
					} else if r.digest != w {
						t.Errorf("%s: digest %s, pinned %s", name, r.digest, w)
					}
				})
			}
		}
	}
	if !*updateWireDigests {
		return
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(wireDigestFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wireDigestFile, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
