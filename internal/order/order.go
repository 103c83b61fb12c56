// Package order holds the integer keys every listing order sorts on.
//
// The paper's listings sort by time and gprof breaks their ties by
// name: the flat profile by self time (§5.1), the call-graph entries
// by total time (§5.2), and the index by name alone. Sorting each of
// them with a string compare at every step compares the same names
// n log n times per listing. Instead, a symbol table sorts its names
// once (ByName), and each listing walks that permutation and runs a
// stable integer sort by time over it (SortStable), so equal times
// keep name order without a single string compare.
package order

import (
	"math"
	"slices"
)

// ByName returns the permutation of positions in names that lists
// them by name, in increasing byte order, then by position.
//
// It sorts 8 bytes of name at a time: a pass stably sorts the items by
// the next 8 bytes of their names, big-endian and zero-padded, and
// every run of equal words whose names go on sorts again on the
// following 8 bytes. Zero padding cannot tell "a" from "a\x00", so a
// run whose names all end within the word is sorted by length. Every
// sort is stable and the items start in position order, so equal names
// stay in position order. Each pass reads each name of a run once and
// compares integers only.
func ByName(names []string) []int32 {
	items := make([]Keyed, len(names))
	for i := range items {
		items[i].Pos = int32(i)
	}
	sortNames(items, names, 0)
	out := make([]int32, len(items))
	for i := range items {
		out[i] = items[i].Pos
	}
	return out
}

// sortNames sorts items, whose names agree on their first off bytes
// and which are in position order where the names are equal, by name.
func sortNames(items []Keyed, names []string, off int) {
	for i := range items {
		items[i].Key = word(names[items[i].Pos], off)
	}
	SortStable(items)
	for i := 0; i < len(items); {
		long := len(names[items[i].Pos]) > off+8
		j := i + 1
		for ; j < len(items) && items[j].Key == items[i].Key; j++ {
			long = long || len(names[items[j].Pos]) > off+8
		}
		switch {
		case j-i == 1:
		case long:
			sortNames(items[i:j], names, off+8)
		default:
			slices.SortStableFunc(items[i:j], func(a, b Keyed) int { return len(names[a.Pos]) - len(names[b.Pos]) })
		}
		i = j
	}
}

// word returns s's bytes [off, off+8) as a big-endian integer,
// zero-padded past the end of s.
func word(s string, off int) uint64 {
	if len(s) >= off+8 {
		s = s[off : off+8]
		return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
			uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | uint64(s[7])
	}
	var w uint64
	for i := off; i < off+8; i++ {
		w <<= 8
		if i < len(s) {
			w |= uint64(s[i])
		}
	}
	return w
}

func cmpUint(a, b uint64) int {
	if a < b {
		return -1
	}
	return 1
}

// Keyed is one item of an integer sort: its key and the position it
// stands for.
type Keyed struct {
	Key uint64
	Pos int32
}

// DescFloat returns a key whose increasing order is f's decreasing
// order: the float's bits with the sign bit flipped for a positive f
// and every bit flipped for a negative one, so unsigned order is
// numeric order, then complemented. −0 shares +0's key, as it compares
// equal to it.
func DescFloat(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		b = ^b
	} else {
		b |= 1 << 63
	}
	return ^b
}

// DescInt returns a key whose increasing order is v's decreasing order.
func DescInt(v int64) uint64 { return ^(uint64(v) ^ 1<<63) }

// radixMin is the item count below which SortStable uses a merge
// sort: a radix pass costs a 256-entry histogram whatever the count.
const radixMin = 256

// SortStable sorts items by increasing Key and keeps the order of
// items with equal keys. It is a least-significant-digit radix sort,
// one pass per key byte and none for a byte every key shares, so the
// few bits tick counts vary in cost a pass or two; keys already in
// order, as names listed in address order often are, cost one check.
func SortStable(items []Keyed) {
	i := 1
	for i < len(items) && items[i-1].Key <= items[i].Key {
		i++
	}
	if i >= len(items) {
		return
	}
	if len(items) < radixMin {
		slices.SortStableFunc(items, func(a, b Keyed) int {
			if a.Key == b.Key {
				return 0
			}
			return cmpUint(a.Key, b.Key)
		})
		return
	}
	var counts [8][256]int
	for i := range items {
		k := items[i].Key
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	var buf []Keyed
	src := items
	for d := range counts {
		c := &counts[d]
		if c[byte(src[0].Key>>(8*d))] == len(src) {
			continue
		}
		if buf == nil {
			buf = make([]Keyed, len(items))
		}
		at := 0
		for b, n := range c {
			c[b] = at
			at += n
		}
		for _, it := range src {
			b := byte(it.Key >> (8 * d))
			buf[c[b]] = it
			c[b]++
		}
		src, buf = buf, src
	}
	if &src[0] != &items[0] {
		copy(items, src)
	}
}
