package osumac_test

// Metro-scale benchmark for the backbone's two engines. The CI
// variants size a 100-cell slice on both engines so the benchdiff gate
// tracks the sharded coordinator against the serial oracle; the full
// metro (14k cells, ~1M subscribers) is too heavy for every CI run and
// is gated behind OSUMAC_METRO=1. The serial engine dispatches each
// event in O(log cells) (the kernel's source heap), so on one core the
// gap between the two engines is barrier coordination against the
// sharded engine's per-cell cache locality. On a multi-core machine the
// sharded engine's per-cell kernels also run concurrently between
// barriers (design target: ≥4× at 8 cores).

import (
	"os"
	"testing"

	"github.com/osu-netlab/osumac/internal/experiments"
	"github.com/osu-netlab/osumac/internal/phy"
)

func metroBenchOptions(cells int, sharded bool) experiments.MetroOptions {
	return experiments.MetroOptions{
		Cells:         cells,
		GPSPerCell:    1,
		DataPerCell:   3,
		RoutedPerCell: 2,
		Load:          0.8,
		Seed:          42,
		Warmup:        2,
		Cycles:        4,
		WireDelay:     phy.CycleLength,
		Sharded:       sharded,
	}
}

// BenchmarkMetroSweep measures the multi-cell backbone on both engines.
func BenchmarkMetroSweep(b *testing.B) {
	run := func(b *testing.B, opts experiments.MetroOptions) {
		var res *experiments.MetroResult
		for i := 0; i < b.N; i++ {
			var err error
			res, err = experiments.Metro(opts)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Subscribers), "subs")
		b.ReportMetric(float64(res.Delivered), "delivered")
		b.ReportMetric(res.Utilization, "util-mean")
	}
	b.Run("ci-serial", func(b *testing.B) { run(b, metroBenchOptions(100, false)) })
	b.Run("ci-sharded", func(b *testing.B) { run(b, metroBenchOptions(100, true)) })
	if os.Getenv("OSUMAC_METRO") == "" {
		b.Log("full metro variant skipped; set OSUMAC_METRO=1 to run 14k cells / ~1M subscribers")
		return
	}
	b.Run("full-sharded", func(b *testing.B) {
		opts := experiments.DefaultMetro()
		opts.Warmup = 2
		opts.Cycles = 3
		run(b, opts)
	})
}
