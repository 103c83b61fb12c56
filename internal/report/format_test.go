package report

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fixedFormats lists every %W.Pf the renderers print, plus the unpadded
// %.2f of the header and total lines.
var fixedFormats = []struct{ width, prec int }{
	{0, 2}, {5, 1}, {8, 2}, {10, 2}, {11, 2}, {14, 2},
}

// checkFixed compares appendFloat with fmt at every renderer format.
func checkFixed(t *testing.T, x float64) {
	t.Helper()
	for _, f := range fixedFormats {
		want := fmt.Sprintf("%*.*f", f.width, f.prec, x)
		got := string(appendFloat([]byte("<"), x, f.width, f.prec)[1:])
		if got != want {
			t.Fatalf("%%%d.%df of %v (%b): got %q, want %q", f.width, f.prec, x, x, got, want)
		}
	}
}

func TestFixedMatchesFmtSpecialValues(t *testing.T) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1e15, -1e15, 1e15 - 0.125, 999999999999999.9, 1e16, 1e300, math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-300,
		0.001, 0.004999, 0.005, 0.0051, -0.005, -0.004, 0.01, 0.05, 0.049999, 0.1, 0.95, 0.99, 0.995, 0.9951,
		9.95, 9.96, 99.95, 99.995, 999.995, 9999.995, 1, 10, 100, 1000, -1, -9.999, -0.0999,
		100 / 3.0, 2.0 / 3.0, 1e14 + 0.5, 123456789012.345,
	} {
		checkFixed(t, x)
	}
	// The doubles around each rounding threshold below 10^-prec.
	for _, th := range []float64{0.5, 0.05, 0.005, 0.0005, 0.1, 0.01, 0.001} {
		for _, x := range []float64{th, math.Nextafter(th, 0), math.Nextafter(th, 1)} {
			checkFixed(t, x)
			checkFixed(t, -x)
		}
	}
}

// Exact halves at the rounding digit: fmt rounds them to even, which the
// fast path must reproduce.
func TestFixedMatchesFmtExactHalves(t *testing.T) {
	for k := 0; k < 2000; k++ {
		for j := 0; j < 8; j++ {
			x := float64(k) + float64(j)/8 // .125, .375, .625, .875 are .xx5
			checkFixed(t, x)
			checkFixed(t, -x)
			checkFixed(t, x/100)
			checkFixed(t, float64(k)*1e6+float64(j)/8)
		}
		checkFixed(t, float64(k)+0.25) // .x5 at %.1f
		checkFixed(t, float64(k)+0.05)
		checkFixed(t, float64(k)+0.005)
	}
}

// The doubles around appendFloat's integer-path bound, 2^52/100, and
// its neighbours at the other scales; exact halves above 2^40, where
// x·100 keeps only a few bits below the point; and negative zero with
// the negative values that round to it.
func TestFixedMatchesFmtFastPathBound(t *testing.T) {
	for _, bound := range []float64{1 << 52 / 100.0, fastMax, 1 << 52 / 10.0, 1 << 52, 1 << 53} {
		for _, dir := range []float64{0, math.Inf(1)} {
			x := bound
			for i := 0; i < 200; i++ {
				checkFixed(t, x)
				checkFixed(t, -x)
				x = math.Nextafter(x, dir)
			}
		}
	}
	for e := 40; e <= 52; e++ {
		base := math.Ldexp(1, e)
		for k := 0.0; k < 64; k++ {
			// .5 is a half at %.0f, .25 and .75 at %.1f, the eighths at
			// %.2f; each is exact while e+3 bits fit the mantissa.
			for _, frac := range []float64{0.5, 0.25, 0.75, 0.125, 0.375, 0.625, 0.875} {
				checkFixed(t, base+k+frac)
				checkFixed(t, -(base + k + frac))
			}
		}
	}
	for _, x := range []float64{math.Copysign(0, -1), -1e-300, -0.001, -0.004999, -0.005, -0.04, -0.0499999} {
		checkFixed(t, x)
	}
}

// Tick counts over the clock rates profiles come with, the way the
// renderers derive every printed number: seconds, percentages and
// milliseconds per call.
func TestFixedMatchesFmtTickRatios(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, hz := range []float64{60, 100, 1000, 1e6} {
		for i := 0; i < 5000; i++ {
			ticks := float64(rng.Int63n(1 << uint(rng.Intn(40))))
			if i%3 == 0 {
				// Coarse histogram attribution splits ticks fractionally.
				ticks *= rng.Float64()
			}
			checkFixed(t, ticks/hz)
			checkFixed(t, -ticks/hz)
			total := ticks + float64(rng.Int63n(1<<20)) + 1
			checkFixed(t, 100*ticks/total)
			checkFixed(t, ticks/hz*1000/float64(rng.Int63n(1000)+1))
		}
	}
}

func TestFixedMatchesFmtRandomBits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		checkFixed(t, math.Float64frombits(rng.Uint64()))
	}
	for i := 0; i < 50000; i++ {
		checkFixed(t, rng.Float64()*math.Pow(10, float64(rng.Intn(20)-4)))
	}
}

func TestIntMatchesFmt(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 42, 1234567, 12345678, -1234567, math.MaxInt64, math.MinInt64} {
		for _, w := range []int{7, -7, 9, 15} {
			want := fmt.Sprintf("%*d", w, v)
			if got := string(appendInt(nil, v, w)); got != want {
				t.Errorf("%%%dd of %d: got %q, want %q", w, v, got, want)
			}
		}
	}
}

func FuzzFixed(f *testing.F) {
	for _, x := range []float64{0, 0.125, 0.005, 99.995, 1e15, 1 << 52 / 100.0, -2.5, math.Inf(1)} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		checkFixed(t, x)
	})
}

func BenchmarkFixed(b *testing.B) {
	buf := make([]byte, 0, 64)
	for i := 0; i < b.N; i++ {
		buf = appendFloat(buf[:0], float64(i)/60, 11, 2)
	}
}
