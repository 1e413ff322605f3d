package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// small shrinks a workload to test size, keeping its population and
// channel model.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	if w.metro {
		w.cells, w.cycles = 6, 3
	} else {
		w.cells, w.cycles = 2, 40
	}
	return w
}

func mustEpisode(t *testing.T, w workload, seed uint64, v *variant) episode {
	t.Helper()
	e, err := runEpisode(w, seed, v, nil)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return e
}

func fastShare(c coreCounters) float64 {
	return ratio(float64(c.compiled-c.fallbacks), float64(c.cycles))
}

// The ideal cell runs most cycles on the compiled executor; a lossy
// channel turns it off for every cycle. The probes must not change
// either: the phy probe is never installed on an ideal channel.
func TestCompiledCycleShare(t *testing.T) {
	for _, v := range []*variant{{}, {checkers: true, probes: newProbes()}} {
		if got := fastShare(mustEpisode(t, small(t, "cell-ideal"), 1, v).counters); got <= 0 {
			t.Errorf("cell-ideal (probes %v): compiled cycle share %v, want > 0", v.probes != nil, got)
		}
		if got := fastShare(mustEpisode(t, small(t, "cell-noisy"), 1, v).counters); got != 0 {
			t.Errorf("cell-noisy (probes %v): compiled cycle share %v, want 0", v.probes != nil, got)
		}
	}
}

// Wrapper-on and wrapper-off runs, the stepped drive and one
// Network.Run, and the compiled and event paths all give identical
// snapshots.
func TestCellVariantsAgree(t *testing.T) {
	for _, name := range []string{"cell-ideal", "cell-noisy"} {
		w := small(t, name)
		plain := mustEpisode(t, w, 7, &variant{})
		p := newProbes()
		traced := mustEpisode(t, w, 7, &variant{checkers: true, probes: p})
		if traced.digest != plain.digest {
			t.Errorf("%s: traced digest %x, untraced %x", name, traced.digest, plain.digest)
		}
		if traced.violations != 0 {
			t.Errorf("%s: %d conformance violations", name, traced.violations)
		}
		if p.schedCalls == 0 {
			t.Errorf("%s: scheduler probe saw no calls", name)
		}
		if got := p.codewords[1] + p.codewords[2]; (got > 0) != w.noisy {
			t.Errorf("%s: error-model probe saw %d codewords", name, got)
		}
		ref, _, err := runCellsReference(w, 7, &variant{})
		if err != nil || ref != plain.digest {
			t.Errorf("%s: Network.Run digest %x (err %v), stepped %x", name, ref, err, plain.digest)
		}
		ev, _, err := runCellsReference(w, 7, &variant{eventPath: true})
		if err != nil || ev != plain.digest {
			t.Errorf("%s: event-path digest %x (err %v), compiled %x", name, ev, err, plain.digest)
		}
	}
}

// Both metro engines, with and without the tick observer and checkers,
// and the serial event path produce one digest, and the seeded
// cross-cell traffic crosses the backbone.
func TestMetroEnginesAgree(t *testing.T) {
	w := small(t, "metro-sharded")
	var samples []time.Duration
	sharded, err := runEpisode(w, 3, &variant{checkers: true}, &samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != w.cycles {
		t.Errorf("%d cycle samples, want %d", len(samples), w.cycles)
	}
	if sharded.forwarded == 0 || sharded.violations != 0 {
		t.Errorf("forwarded %d, violations %d", sharded.forwarded, sharded.violations)
	}
	for _, v := range []*variant{{otherEngine: true}, {otherEngine: true, eventPath: true}} {
		oracle, err := runMetro(w, 3, v, nil)
		if err != nil || oracle.digest != sharded.digest {
			t.Errorf("oracle %+v: digest %x (err %v), sharded %x", *v, oracle.digest, err, sharded.digest)
		}
	}
}

// The program prints exactly the metrics BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	w := small(t, "cell-noisy")
	plain := measure(w, 1, &variant{}, 0)
	p := newProbes()
	traced := measure(w, 1, &variant{checkers: true, probes: p}, 0)
	check := func(label string, got []metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program prints %d metrics, BENCHMARK.json lists %d", label, len(got), len(want))
		}
		units := map[string]string{}
		for _, m := range got {
			units[m.name] = m.unit
		}
		for _, m := range want {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s printed with unit %q (present %v), want %q", label, m.Name, u, ok, m.Unit)
			}
		}
	}
	check("end_to_end", endToEnd(plain, 1), spec.EndToEnd)
	check("per_layer", perLayer(w, plain, traced, p), spec.PerLayer)
}

// The reference kernel allocates nothing, so it neither feeds the
// collector nor moves the allocation counts of the run it brackets.
func TestRefKernelAllocatesNothing(t *testing.T) {
	if got := testing.AllocsPerRun(5, func() { refKernelOnce() }); got != 0 {
		t.Errorf("reference kernel: %v allocations per run, want 0", got)
	}
	if refKernel() <= 0 {
		t.Error("reference kernel: no time measured")
	}
}
