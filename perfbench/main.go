// Command perfbench is the repository benchmark: it drives the OSU-MAC
// simulator from outside through its public functions on four
// workloads, checks that the simulated output is correct, and prints
// end-to-end metrics (untraced run) or per-layer metrics (traced run).
// The load is a closed loop: one caller runs the simulator as fast as
// it can. See README.md for the workloads, the metrics and how they
// relate.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload cell-ideal --seed 1 --seconds 36 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

//go:embed serial_digests.json
var serialDigestsJSON []byte

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: cell-ideal, cell-noisy, metro-serial or metro-sharded")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measured wall time")
		trace   = flag.Int("trace", 0, "1: traced run, print per-layer metrics")
		outDir  = flag.String("out", ".bench_build", "directory for the span file")
		record  = flag.Bool("record", false, "print the serial-engine digest of a metro workload for serial_digests.json")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(w.procs())
	if *record {
		return recordDigest(w, *seed)
	}
	recorded, err := loadDigests()
	if err != nil {
		return err
	}

	printHost(w, *seed)
	budget := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		budget /= 2 // the traced half follows
	}
	plain := measure(w, *seed, &variant{}, budget)
	rssMB := peakRSSMB()

	g := &gate{}
	checkWorkload(g, w, *seed, plain, recorded)

	var metrics []metric
	if *trace == 0 {
		metrics = endToEnd(plain, rssMB)
	} else {
		p := newProbes()
		traced := measure(w, *seed, &variant{checkers: true, probes: p}, budget)
		p.close(p.root)
		g.episodes(w.name+" traced", traced, g.ref)
		for _, e := range traced.eps {
			g.check(e.violations == 0, "%s traced: %d conformance violations", w.name, e.violations)
		}
		metrics = perLayer(w, plain, traced, p)
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		if err := p.writeSpans(filepath.Join(*outDir, fmt.Sprintf("spans-%s-%d.csv", w.name, *seed))); err != nil {
			return err
		}
	}

	for _, m := range metrics {
		fmt.Printf("%-40s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, msg := range g.failures {
		fmt.Println("FAIL", msg)
	}
	return printResult(g, metrics)
}

// runSet is every episode of one measuring loop.
type runSet struct {
	eps  []episode
	errs []error
}

// measure repeats episodes of w until budget has passed (at least one).
// Every episode simulates the same seed, so all must agree.
func measure(w workload, seed uint64, v *variant, budget time.Duration) *runSet {
	rs := &runSet{}
	cyclesPerEpisode := w.cycles
	if !w.metro {
		cyclesPerEpisode *= w.cells
	}
	// Sized up front so sample appends allocate nothing while
	// allocations are being counted.
	samples := make([]time.Duration, 0, cyclesPerEpisode)
	deadline := time.Now().Add(budget)
	for len(rs.eps) == 0 || (time.Now().Before(deadline) && !v.probes.full()) {
		samples = samples[:0]
		e, err := runEpisode(w, seed, v, &samples)
		if err != nil {
			rs.errs = append(rs.errs, err)
			break
		}
		e.cycleP50, e.cycleP99 = percentile(samples, 50), percentile(samples, 99)
		rs.eps = append(rs.eps, e)
	}
	return rs
}

// gate collects the correctness checks; each is one attempted
// operation, as is each measured episode.
type gate struct {
	attempted, failed int
	failures          []string
	ref               uint64
}

func (g *gate) check(ok bool, format string, args ...any) {
	g.attempted++
	if !ok {
		g.failed++
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

// episodes counts every episode of rs, failing those whose digest
// differs from ref, and every run error.
func (g *gate) episodes(label string, rs *runSet, ref uint64) {
	for i, e := range rs.eps {
		g.check(e.digest == ref, "%s episode %d: digest %016x, reference %016x", label, i, e.digest, ref)
	}
	for _, err := range rs.errs {
		g.check(false, "%s: run error: %v", label, err)
	}
}

// checkWorkload runs the differential oracles of w for seed and checks
// the measured episodes against them.
func checkWorkload(g *gate, w workload, seed uint64, plain *runSet, recorded map[string]string) {
	var (
		ref        uint64
		violations int
		err        error
	)
	if w.metro {
		// The serial and sharded engines must agree; the sharded
		// workload's oracle runs on the serial event path, which avoids
		// the serial compiled kernel's per-cell source scan.
		var e episode
		e, err = runMetro(w, seed, &variant{otherEngine: true, eventPath: w.sharded, checkers: true}, nil)
		ref, violations = e.digest, e.violations
		g.check(err == nil, "%s oracle: %v", w.name, err)
	} else {
		// One Network.Run(total), with conformance checkers attached:
		// the stepped untraced drive must reproduce it byte for byte.
		ref, violations, err = runCellsReference(w, seed, &variant{checkers: true})
		g.check(err == nil, "%s reference: %v", w.name, err)
		if !w.noisy {
			ev, _, err := runCellsReference(w, seed, &variant{eventPath: true})
			g.check(err == nil && ev == ref, "%s: event-path digest %016x (err %v), compiled %016x", w.name, ev, err, ref)
		}
	}
	g.ref = ref
	g.check(violations == 0, "%s oracle: %d conformance violations", w.name, violations)
	if want, ok := recorded[digestKey(w, seed)]; ok {
		got := fmt.Sprintf("%016x", ref)
		g.check(got == want, "%s: digest %s, recorded serial-engine digest %s", w.name, got, want)
	}
	g.episodes(w.name, plain, ref)
}

// metric is one named value with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

func printResult(g *gate, metrics []metric) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: map[string]mv{}}
	for _, m := range metrics {
		out.Metrics[m.name] = mv{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// median returns the middle value of xs (mean of the two middle ones
// for even lengths); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	slices.Sort(s)
	rank := int(p/100*float64(len(s))+0.999999) - 1
	return s[max(0, min(rank, len(s)-1))]
}

func digestKey(w workload, seed uint64) string { return fmt.Sprintf("%s/%d", w.name, seed) }

func loadDigests() (map[string]string, error) {
	m := map[string]string{}
	if err := json.Unmarshal(serialDigestsJSON, &m); err != nil {
		return nil, fmt.Errorf("serial_digests.json: %w", err)
	}
	return m, nil
}

// recordDigest prints the compiled serial-engine digest of a metro
// workload for seed, as one serial_digests.json entry.
func recordDigest(w workload, seed uint64) error {
	if !w.metro {
		return fmt.Errorf("--record applies to metro workloads only")
	}
	e, err := runMetro(w, seed, &variant{otherEngine: w.sharded}, nil)
	if err != nil {
		return err
	}
	fmt.Printf("%q: \"%016x\"\n", digestKey(w, seed), e.digest)
	return nil
}
