package rs

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"github.com/osu-netlab/osumac/internal/sim"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		n, k   int
		wantOK bool
	}{
		{64, 48, true},
		{255, 223, true},
		{15, 11, true},
		{48, 64, false}, // n < k
		{64, 64, false}, // n == k
		{64, 0, false},
		{256, 200, false}, // n > field order - 1
		{10, -1, false},
	}
	for _, c := range cases {
		_, err := New(c.n, c.k)
		if (err == nil) != c.wantOK {
			t.Errorf("New(%d,%d) err=%v, wantOK=%v", c.n, c.k, err, c.wantOK)
		}
	}
}

func TestPaperCodeParameters(t *testing.T) {
	c := NewPaperCode()
	if c.N() != 64 || c.K() != 48 || c.T() != 8 {
		t.Fatalf("paper code (n,k,t) = (%d,%d,%d), want (64,48,8)", c.N(), c.K(), c.T())
	}
}

func TestEncodeLengthCheck(t *testing.T) {
	c := NewPaperCode()
	if _, err := c.Encode(make([]byte, 47)); !errors.Is(err, ErrLength) {
		t.Fatalf("short message: err = %v, want ErrLength", err)
	}
	if _, err := c.Encode(make([]byte, 49)); !errors.Is(err, ErrLength) {
		t.Fatalf("long message: err = %v, want ErrLength", err)
	}
}

func TestEncodeIsSystematic(t *testing.T) {
	c := NewPaperCode()
	msg := make([]byte, 48)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	cw, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cw) != 64 {
		t.Fatalf("codeword length %d, want 64", len(cw))
	}
	if !bytes.Equal(cw[:48], msg) {
		t.Fatal("codeword does not start with the message (not systematic)")
	}
}

func TestCleanRoundTrip(t *testing.T) {
	c := NewPaperCode()
	msg := make([]byte, 48)
	for i := range msg {
		msg[i] = byte(255 - i)
	}
	cw, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(cw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("clean decode differs from message")
	}
}

func TestCorrectsUpToTErrors(t *testing.T) {
	c := NewPaperCode()
	rng := sim.NewRNG(1)
	msg := make([]byte, 48)
	for i := range msg {
		msg[i] = byte(rng.Uint64())
	}
	cw, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	for nerr := 1; nerr <= c.T(); nerr++ {
		corrupted := make([]byte, len(cw))
		copy(corrupted, cw)
		positions := rng.Shuffled(len(cw))[:nerr]
		for _, p := range positions {
			corrupted[p] ^= byte(rng.UniformInt(1, 255))
		}
		full, fixed, err := c.DecodeCodeword(corrupted)
		if err != nil {
			t.Fatalf("%d errors: decode failed: %v", nerr, err)
		}
		if fixed != nerr {
			t.Fatalf("%d errors: fixed %d", nerr, fixed)
		}
		if !bytes.Equal(full[:48], msg) {
			t.Fatalf("%d errors: wrong message", nerr)
		}
	}
}

func TestErrorsInParityRegionCorrected(t *testing.T) {
	c := NewPaperCode()
	msg := make([]byte, 48)
	msg[0] = 0xAB
	cw, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := make([]byte, len(cw))
	copy(corrupted, cw)
	for i := 48; i < 56; i++ { // all 8 errors in parity bytes
		corrupted[i] ^= 0xFF
	}
	got, err := c.Decode(corrupted)
	if err != nil {
		t.Fatalf("parity-region errors: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("message corrupted by parity-region errors")
	}
}

func TestDetectsBeyondTErrors(t *testing.T) {
	c := NewPaperCode()
	rng := sim.NewRNG(2)
	msg := make([]byte, 48)
	cw, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		corrupted := make([]byte, len(cw))
		copy(corrupted, cw)
		nerr := c.T() + 1 + rng.Intn(20)
		positions := rng.Shuffled(len(cw))[:nerr]
		for _, p := range positions {
			corrupted[p] ^= byte(rng.UniformInt(1, 255))
		}
		got, err := c.Decode(corrupted)
		if err != nil {
			failures++
			continue
		}
		// Bounded-distance decoding may miscorrect to a different valid
		// codeword; that result must then differ from the corrupted word
		// in at most t positions.
		full, fixErr := c.Encode(got)
		if fixErr != nil {
			t.Fatalf("re-encode of decoded message failed: %v", fixErr)
		}
		dist := 0
		for i := range full {
			if full[i] != corrupted[i] {
				dist++
			}
		}
		if dist > c.T() {
			t.Fatalf("miscorrection at distance %d > t=%d from received word", dist, c.T())
		}
	}
	if failures < trials*8/10 {
		t.Fatalf("only %d/%d heavy corruptions detected; decoder too permissive", failures, trials)
	}
}

func TestDecodeLengthCheck(t *testing.T) {
	c := NewPaperCode()
	if _, err := c.Decode(make([]byte, 63)); !errors.Is(err, ErrLength) {
		t.Fatalf("err = %v, want ErrLength", err)
	}
}

func TestAllZeroAndAllMaxMessages(t *testing.T) {
	c := NewPaperCode()
	for _, fill := range []byte{0x00, 0xFF} {
		msg := bytes.Repeat([]byte{fill}, 48)
		cw, err := c.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		cw[3] ^= 0x55
		cw[60] ^= 0xAA
		got, err := c.Decode(cw)
		if err != nil {
			t.Fatalf("fill %#x: %v", fill, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("fill %#x: wrong decode", fill)
		}
	}
}

func TestSmallCode(t *testing.T) {
	c := MustNew(15, 11) // classic RS(15,11), t=2 over GF(256) works too
	msg := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	cw, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	cw[0] ^= 0x01
	cw[14] ^= 0x80
	got, err := c.Decode(cw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("RS(15,11) round-trip failed")
	}
}

func TestDecodeDoesNotMutateInput(t *testing.T) {
	c := NewPaperCode()
	msg := make([]byte, 48)
	msg[10] = 42
	cw, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	cw[5] ^= 0x10
	snapshot := make([]byte, len(cw))
	copy(snapshot, cw)
	if _, err := c.Decode(cw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cw, snapshot) {
		t.Fatal("Decode mutated its input")
	}
}

// Property: encode → corrupt ≤ t random positions → decode restores the
// message, for random messages.
func TestPropertyRoundTripUnderTErrors(t *testing.T) {
	c := NewPaperCode()
	rng := sim.NewRNG(99)
	f := func(seed uint64, nerrRaw uint8) bool {
		r := sim.NewRNG(seed)
		msg := make([]byte, 48)
		for i := range msg {
			msg[i] = byte(r.Uint64())
		}
		cw, err := c.Encode(msg)
		if err != nil {
			return false
		}
		nerr := int(nerrRaw) % (c.T() + 1) // 0..8
		positions := rng.Shuffled(len(cw))[:nerr]
		for _, p := range positions {
			cw[p] ^= byte(r.UniformInt(1, 255))
		}
		got, err := c.Decode(cw)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: every codeword has zero syndromes after encoding (valid
// codeword), for random messages across several (n,k).
func TestPropertyEncodedWordsAreCodewords(t *testing.T) {
	codes := []*Code{NewPaperCode(), MustNew(32, 20), MustNew(255, 223)}
	f := func(seed uint64, which uint8) bool {
		c := codes[int(which)%len(codes)]
		r := sim.NewRNG(seed)
		msg := make([]byte, c.K())
		for i := range msg {
			msg[i] = byte(r.Uint64())
		}
		cw, err := c.Encode(msg)
		if err != nil {
			return false
		}
		syn := make([]byte, c.N()-c.K())
		return c.syndromesInto(syn, cw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestWithinRadiusMatchesDecoder checks WithinRadius against the
// decoder: a word within t byte errors of a codeword must decode to its
// message, and a word beyond that must not be reported within radius.
func TestWithinRadiusMatchesDecoder(t *testing.T) {
	c := NewPaperCode()
	rng := sim.NewRNG(17)
	for trial := 0; trial < 400; trial++ {
		msg := make([]byte, c.K())
		for i := range msg {
			msg[i] = byte(rng.Uint64())
		}
		cw, err := c.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		nerr := rng.Intn(c.T() + 4)
		rx := append([]byte(nil), cw...)
		for _, p := range rng.Shuffled(len(cw))[:nerr] {
			rx[p] ^= byte(rng.UniformInt(1, 255))
		}
		within := c.WithinRadius(cw, rx)
		if within != (nerr <= c.T()) {
			t.Fatalf("%d errors: WithinRadius = %v", nerr, within)
		}
		if !within {
			continue
		}
		got, err := c.Decode(rx)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("%d errors within radius: decode = %x, %v", nerr, got, err)
		}
	}
	// Runs of codewords are judged codeword by codeword.
	two := make([]byte, 2*c.N())
	rx := append([]byte(nil), two...)
	for i := 0; i < c.T(); i++ {
		rx[i] ^= 1
		rx[c.N()+i] ^= 1
	}
	if !c.WithinRadius(two, rx) {
		t.Fatal("t errors in each of two codewords reported beyond radius")
	}
	rx[c.N()+c.T()] ^= 1
	if c.WithinRadius(two, rx) {
		t.Fatal("t+1 errors in the second codeword reported within radius")
	}
	if c.WithinRadius(two, rx[:c.N()]) || c.WithinRadius(two[:10], rx[:10]) {
		t.Fatal("mismatched or partial lengths reported within radius")
	}
}
