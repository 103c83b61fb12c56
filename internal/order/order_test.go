package order

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestByName checks the name permutation against a stable sort by
// string compare, on names that share long prefixes, end inside and
// at word boundaries, repeat, and differ only by trailing NULs.
func TestByName(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := "\x00 ab<>~\xff"
	for _, n := range []int{0, 1, 2, 7, 300, 5000} {
		names := make([]string, n)
		for i := range names {
			var b strings.Builder
			if rng.Intn(2) == 0 {
				b.WriteString("runtime.gcDrain"[:rng.Intn(16)])
			}
			for k := rng.Intn(20); k > 0; k-- {
				b.WriteByte(alphabet[rng.Intn(len(alphabet))])
			}
			names[i] = b.String()
			if i > 0 && rng.Intn(8) == 0 {
				names[i] = names[rng.Intn(i)]
			}
		}
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
		if got := ByName(names); !slices.Equal(got, want) {
			t.Errorf("n=%d: ByName differs from a stable sort by name:\n got %v\nwant %v", n, got, want)
		}
	}
}

// TestDescKeys checks that the keys' increasing order is the values'
// decreasing order, and that values comparing equal share a key.
func TestDescKeys(t *testing.T) {
	floats := []float64{math.Inf(1), math.MaxFloat64, 3, 1.5, 1, 0.1 + 0.2, 0.3, 5e-324, 0, math.Copysign(0, -1),
		-5e-324, -1, -2.5, -math.MaxFloat64, math.Inf(-1)}
	for i, a := range floats {
		for _, b := range floats[i:] {
			ka, kb := DescFloat(a), DescFloat(b)
			if (a > b) != (ka < kb) || (a == b) != (ka == kb) {
				t.Errorf("DescFloat(%g) = %#x, DescFloat(%g) = %#x: out of order", a, ka, b, kb)
			}
		}
	}
	ints := []int64{math.MaxInt64, 3, 1, 0, -1, math.MinInt64}
	for i, a := range ints {
		for _, b := range ints[i:] {
			ka, kb := DescInt(a), DescInt(b)
			if (a > b) != (ka < kb) || (a == b) != (ka == kb) {
				t.Errorf("DescInt(%d) = %#x, DescInt(%d) = %#x: out of order", a, ka, b, kb)
			}
		}
	}
}

// TestSortStable checks the radix sort and its small-input merge sort
// against a stable comparison sort, on keys with many ties and keys
// that differ only in one byte.
func TestSortStable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 5, radixMin - 1, radixMin, 10000} {
		for _, spread := range []uint64{1, 7, 1 << 40, math.MaxUint64} {
			items := make([]Keyed, n)
			for i := range items {
				items[i] = Keyed{Key: 0xab00 + rng.Uint64()%spread<<8, Pos: int32(i)}
			}
			want := slices.Clone(items)
			slices.SortStableFunc(want, func(a, b Keyed) int {
				switch {
				case a.Key < b.Key:
					return -1
				case a.Key > b.Key:
					return 1
				}
				return 0
			})
			SortStable(items)
			if !slices.Equal(items, want) {
				t.Errorf("n=%d spread=%#x: SortStable differs from a stable sort", n, spread)
			}
		}
	}
}
