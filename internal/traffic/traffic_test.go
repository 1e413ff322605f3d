package traffic

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/osu-netlab/osumac/internal/sim"
)

func TestFixedDist(t *testing.T) {
	d := Fixed{Bytes: 120}
	rng := sim.NewRNG(1)
	for i := 0; i < 10; i++ {
		if d.Sample(rng) != 120 {
			t.Fatal("fixed distribution varied")
		}
	}
	if d.Mean() != 120 {
		t.Fatal("mean wrong")
	}
	if d.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestUniformDist(t *testing.T) {
	d := Uniform{Min: 40, Max: 500}
	rng := sim.NewRNG(2)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		v := d.Sample(rng)
		if v < 40 || v > 500 {
			t.Fatalf("sample %d out of range", v)
		}
		sum += float64(v)
	}
	mean := sum / trials
	if math.Abs(mean-270) > 3 {
		t.Fatalf("empirical mean %v, want ~270", mean)
	}
	if d.Mean() != 270 {
		t.Fatalf("Mean() = %v, want 270", d.Mean())
	}
}

func TestUniformDegenerate(t *testing.T) {
	d := Uniform{Min: 10, Max: 10}
	if d.Sample(sim.NewRNG(1)) != 10 {
		t.Fatal("degenerate uniform should return Min")
	}
	inverted := Uniform{Min: 10, Max: 5}
	if inverted.Sample(sim.NewRNG(1)) != 10 {
		t.Fatal("inverted range should return Min")
	}
}

func TestPaperPresets(t *testing.T) {
	if PaperFixed.Bytes != 120 {
		t.Fatal("paper fixed size should be 120 B")
	}
	if PaperVariable.Min != 40 || PaperVariable.Max != 500 {
		t.Fatal("paper variable range should be 40-500 B")
	}
}

func TestPoissonSourceGapDistribution(t *testing.T) {
	mean := 2 * time.Second
	src := NewPoissonSource(mean, Fixed{Bytes: 100}, sim.NewRNG(3))
	var sum time.Duration
	const trials = 50000
	for i := 0; i < trials; i++ {
		g := src.NextGap()
		if g < 0 {
			t.Fatal("enabled source returned negative gap")
		}
		sum += g
	}
	got := float64(sum) / trials
	if math.Abs(got-float64(mean)) > 0.05*float64(mean) {
		t.Fatalf("empirical mean gap %v, want ~%v", time.Duration(got), mean)
	}
}

func TestPoissonSourceDisabled(t *testing.T) {
	src := NewPoissonSource(0, Fixed{Bytes: 1}, sim.NewRNG(1))
	if src.NextGap() >= 0 {
		t.Fatal("disabled source should return negative gap")
	}
}

func TestPoissonSourceMessageIDs(t *testing.T) {
	src := NewPoissonSource(time.Second, Fixed{Bytes: 7}, sim.NewRNG(4))
	for i := 0; i < 5; i++ {
		m := src.NewMessage(time.Duration(i) * time.Second)
		if m.ID != i {
			t.Fatalf("message ID %d, want %d", m.ID, i)
		}
		if m.Bytes != 7 {
			t.Fatalf("message size %d", m.Bytes)
		}
		if m.CreatedAt != time.Duration(i)*time.Second {
			t.Fatal("CreatedAt not honored")
		}
	}
}

func TestLoadIndexRoundTrip(t *testing.T) {
	const (
		users       = 10
		meanBytes   = 270.0
		dataSlots   = 9
		slotPayload = 41
	)
	cycle := 3984375 * time.Microsecond
	for _, load := range []float64{0.3, 0.5, 0.8, 0.9, 1.0, 1.1} {
		T := InterarrivalFor(load, users, meanBytes, cycle, dataSlots, slotPayload)
		got := LoadIndex(users, meanBytes, T, cycle, dataSlots, slotPayload)
		if math.Abs(got-load) > 0.001 {
			t.Errorf("round-trip load %v → %v", load, got)
		}
	}
}

func TestLoadIndexEdgeCases(t *testing.T) {
	if LoadIndex(5, 100, 0, time.Second, 9, 41) != 0 {
		t.Fatal("zero interarrival should yield 0")
	}
	if LoadIndex(5, 100, time.Second, time.Second, 0, 41) != 0 {
		t.Fatal("zero slots should yield 0")
	}
	if InterarrivalFor(0, 5, 100, time.Second, 9, 41) != 0 {
		t.Fatal("zero load should yield 0 interarrival")
	}
	if InterarrivalFor(0.5, 0, 100, time.Second, 9, 41) != 0 {
		t.Fatal("zero users should yield 0 interarrival")
	}
}

func TestLoadIndexScalesWithUsers(t *testing.T) {
	cycle := 4 * time.Second
	T := 10 * time.Second
	l1 := LoadIndex(5, 100, T, cycle, 9, 41)
	l2 := LoadIndex(10, 100, T, cycle, 9, 41)
	if math.Abs(l2-2*l1) > 1e-9 {
		t.Fatalf("load should double with users: %v vs %v", l1, l2)
	}
}

func TestGPSSource(t *testing.T) {
	g := NewGPSSource(4 * time.Second)
	if g.Period() != 4*time.Second {
		t.Fatal("period wrong")
	}
	for i := 0; i < 3; i++ {
		if got := g.NewReport(); got != i {
			t.Fatalf("sequence %d, want %d", got, i)
		}
	}
}

// Property: LoadIndex and InterarrivalFor are inverses for any positive
// parameters.
func TestPropertyLoadInverse(t *testing.T) {
	f := func(loadRaw, usersRaw, bytesRaw uint8) bool {
		load := 0.1 + float64(loadRaw%30)/10 // 0.1 .. 3.0
		users := int(usersRaw%20) + 1
		meanBytes := float64(bytesRaw%200) + 40
		cycle := 3984375 * time.Microsecond
		T := InterarrivalFor(load, users, meanBytes, cycle, 9, 41)
		if T <= 0 {
			return false
		}
		got := LoadIndex(users, meanBytes, T, cycle, 9, 41)
		return math.Abs(got-load) < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformName(t *testing.T) {
	if (Uniform{Min: 40, Max: 500}).Name() == "" {
		t.Fatal("empty name")
	}
}

func TestMeanInterarrivalAccessor(t *testing.T) {
	src := NewPoissonSource(3*time.Second, PaperFixed, sim.NewRNG(1))
	if src.MeanInterarrival() != 3*time.Second {
		t.Fatal("accessor wrong")
	}
}

func TestExpectedFragments(t *testing.T) {
	// Fixed 120 B with 41 B payload → exactly 3 fragments.
	if got := ExpectedFragments(Fixed{Bytes: 120}, 41); got != 3 {
		t.Fatalf("fixed(120) = %v, want 3", got)
	}
	// Degenerate payload.
	if ExpectedFragments(PaperFixed, 0) != 0 {
		t.Fatal("zero payload should yield 0")
	}
	// Uniform 40-500 with 41 B: exact average of ceil(s/41) over s.
	got := ExpectedFragments(Uniform{Min: 40, Max: 500}, 41)
	total := 0
	for s := 40; s <= 500; s++ {
		total += (s + 40) / 41
	}
	want := float64(total) / 461
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("uniform = %v, want %v", got, want)
	}
	// Inverted uniform range degenerates to Min.
	if got := ExpectedFragments(Uniform{Min: 100, Max: 50}, 41); got != 3 {
		t.Fatalf("inverted uniform = %v, want 3 (ceil(100/41))", got)
	}
}

type constDist struct{ n int }

func (c constDist) Sample(*sim.RNG) int { return c.n }
func (c constDist) Mean() float64       { return float64(c.n) }
func (c constDist) Name() string        { return "const" }

func TestExpectedFragmentsFallback(t *testing.T) {
	// Unknown distributions use the continuous approximation.
	got := ExpectedFragments(constDist{n: 82}, 41)
	if math.Abs(got-(82.0/41+0.5)) > 1e-12 {
		t.Fatalf("fallback = %v", got)
	}
}

func TestInterarrivalForSlots(t *testing.T) {
	cycle := 3984375 * time.Microsecond
	T := InterarrivalForSlots(0.9, 10, PaperVariable, 41, cycle, 8)
	if T <= 0 {
		t.Fatal("non-positive interarrival")
	}
	// Check the calibration: fragment arrivals per cycle = ρ·d.
	fragsPerMsg := ExpectedFragments(PaperVariable, 41)
	msgsPerCycle := 10 * float64(cycle) / float64(T)
	fragsPerCycle := msgsPerCycle * fragsPerMsg
	if math.Abs(fragsPerCycle-0.9*8) > 0.01 {
		t.Fatalf("fragment rate %v, want %v", fragsPerCycle, 0.9*8)
	}
	// Edge cases.
	if InterarrivalForSlots(0, 10, PaperVariable, 41, cycle, 8) != 0 {
		t.Fatal("zero load should yield 0")
	}
	if InterarrivalForSlots(0.5, 0, PaperVariable, 41, cycle, 8) != 0 {
		t.Fatal("zero users should yield 0")
	}
	if InterarrivalForSlots(0.5, 10, PaperVariable, 41, cycle, 0) != 0 {
		t.Fatal("zero slots should yield 0")
	}
}

func TestFragCountEdge(t *testing.T) {
	if FragCount(0, 41) != 1 || FragCount(-5, 41) != 1 {
		t.Fatal("non-positive sizes should count one fragment")
	}
	if FragCount(41, 41) != 1 || FragCount(42, 41) != 2 {
		t.Fatal("boundary fragment counts wrong")
	}
}
