package gmon

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"repro/internal/binio"
)

// FuzzRead hammers the profile decoder with arbitrary bytes: corrupt
// headers, truncated sections, and overflowing varints must all surface
// as errors — never a panic, and never an allocation sized by a lying
// header (binio.Records' bounded growth is what this exercises). Every
// input decodes twice, through the zero-copy fixed reader that mapped
// files take and through the streaming block reader that Open takes;
// the two must both fail or return equal profiles. Any input that does
// decode must be a valid profile that survives a re-encode round trip
// in every format version.
func FuzzRead(f *testing.F) {
	seed := func(p *Profile, version int) {
		var buf bytes.Buffer
		if err := WriteVersion(&buf, p, version); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		b := buf.Bytes()
		f.Add(b[:len(b)/2]) // truncated mid-section
		f.Add(b[:47])       // truncated header
	}
	seed(sample(), Version1)
	seed(sample(), Version2)
	seed(sampleV3(), Version3)
	empty := &Profile{Hist: Histogram{Low: 0, High: 0, Step: 1, Counts: []uint32{}}, Arcs: []Arc{}}
	seed(empty, Version1)
	f.Add([]byte("GMOO____________"))
	// Hostile version-3 stack sections: lying record count, zero and
	// overflowing depth, zero count, negative frame pc, out-of-order
	// and duplicate records.
	uv := func(dst []byte, vs ...uint64) []byte {
		for _, v := range vs {
			dst = binio.AppendUvarint(dst, v)
		}
		return dst
	}
	f.Add(v3Bytes(1<<27, nil))
	f.Add(v3Bytes(1, uv(nil, 7, 0, 4)))
	f.Add(v3Bytes(1, uv(nil, 7, MaxStackDepth+1)))
	f.Add(v3Bytes(1, uv(nil, 7, 1, 0)))
	f.Add(v3Bytes(1, uv(uv(nil, 7, 2), zigzag(-8), 1)))
	f.Add(v3Bytes(2, uv(nil, 7, 2, 8, 1, 0, 2, 9, 1)))
	f.Add(v3Bytes(2, uv(nil, 7, 1, 1, 0, 1, 1)))
	f.Add(v3Bytes(2, uv(nil, 7, 3, 2, 4, 6, 0, 3, 2, 6, 6)))
	// Header declaring 2^27 records over no body.
	huge := append([]byte(nil), []byte("GMON")...)
	huge = append(huge, 1, 0, 0, 0)
	huge = append(huge, make([]byte, 32)...)
	huge = append(huge, 0xff, 0xff, 0xff, 0x07, 0xff, 0xff, 0xff, 0x07)
	f.Add(huge)
	// Version 2 with a varint that runs past 64 bits.
	v2overflow := append([]byte(nil), []byte("GMON")...)
	v2overflow = append(v2overflow, 2, 0, 0, 0)
	v2overflow = append(v2overflow, 60, 0, 0, 0, 0, 0, 0, 0) // hz
	v2overflow = append(v2overflow, 0, 0, 0, 0, 0, 0, 0, 0)  // low
	v2overflow = append(v2overflow, 1, 0, 0, 0, 0, 0, 0, 0)  // high
	v2overflow = append(v2overflow, 1, 0, 0, 0, 0, 0, 0, 0)  // step
	v2overflow = append(v2overflow, 1, 0, 0, 0, 1, 0, 0, 0)  // nbkt=1 narc=1
	v2overflow = append(v2overflow, 0)                       // count[0]=0
	v2overflow = append(v2overflow, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	f.Add(v2overflow)

	f.Fuzz(func(t *testing.T, data []byte) {
		fixed := &Profile{}
		_, fixedErr := read(nil, data, fixed)
		p, err := Open(bytes.NewReader(data))
		if (fixedErr == nil) != (err == nil) {
			t.Fatalf("in-memory decode error %v, streaming decode error %v", fixedErr, err)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(fixed, p) {
			t.Fatalf("in-memory and streaming decodes diverged:\n got %+v\nwant %+v", fixed, p)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid profile: %v", err)
		}
		// Round trip through every encoder. Pre-v3 encodings drop the
		// stack table, so those legs compare against a stripped clone.
		flat := p
		if p.Stacks != nil {
			cp := *p // shallow: keep empty-vs-nil slice identity intact
			cp.Stacks = nil
			flat = &cp
		}
		var v1 bytes.Buffer
		if err := WriteVersion(&v1, p, Version1); err != nil {
			t.Fatalf("re-encode v1: %v", err)
		}
		q, err := Open(bytes.NewReader(v1.Bytes()))
		if err != nil {
			t.Fatalf("decode re-encoded v1: %v", err)
		}
		if !reflect.DeepEqual(flat, q) {
			t.Fatalf("v1 round trip diverged:\n got %+v\nwant %+v", q, flat)
		}
		// The reader enforces canonical stack order, so any decoded
		// stack table re-encodes at v3 and round-trips exactly.
		var v3 bytes.Buffer
		if err := WriteVersion(&v3, p, Version3); err != nil {
			t.Fatalf("re-encode v3: %v", err)
		}
		s, err := Open(bytes.NewReader(v3.Bytes()))
		if err != nil {
			t.Fatalf("decode re-encoded v3: %v", err)
		}
		if !reflect.DeepEqual(s.Stacks, p.Stacks) {
			t.Fatalf("v3 stack round trip diverged:\n got %+v\nwant %+v", s.Stacks, p.Stacks)
		}
		var v2 bytes.Buffer
		if err := WriteVersion(&v2, p, Version2); err != nil {
			t.Fatalf("re-encode v2: %v", err)
		}
		r, err := Open(bytes.NewReader(v2.Bytes()))
		if err != nil {
			t.Fatalf("decode re-encoded v2: %v", err)
		}
		// Arbitrary inputs may hold duplicate (FromPC, SelfPC) keys,
		// which SortArcs (unstable) may order either way — compare
		// under a total order on the whole triple.
		canon := flat.Clone()
		canon.SortArcs()
		if canon.Arcs == nil {
			canon.Arcs = []Arc{}
		}
		if canon.Hist.Counts == nil {
			canon.Hist.Counts = []uint32{}
		}
		sortByTriple := func(arcs []Arc) {
			sort.Slice(arcs, func(i, j int) bool {
				if arcs[i].FromPC != arcs[j].FromPC {
					return arcs[i].FromPC < arcs[j].FromPC
				}
				if arcs[i].SelfPC != arcs[j].SelfPC {
					return arcs[i].SelfPC < arcs[j].SelfPC
				}
				return arcs[i].Count < arcs[j].Count
			})
		}
		sortByTriple(canon.Arcs)
		sortByTriple(r.Arcs)
		if !reflect.DeepEqual(r, canon) {
			t.Fatalf("v2 round trip diverged:\n got %+v\nwant %+v", r, canon)
		}
	})
}

// FuzzMerge folds one arbitrary decoded profile into another: Merge
// must never panic, must agree with the map-fold oracle (mapMerge) on a
// canonically ordered accumulator, and must leave its argument alone.
// The argument takes the accumulator's histogram geometry and clock
// rate (its counts truncated or zero-padded) so unrelated inputs fold.
func FuzzMerge(f *testing.F) {
	enc := func(p *Profile, version int) []byte {
		var buf bytes.Buffer
		if err := WriteVersion(&buf, p, version); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	dup := sample()
	dup.Arcs = []Arc{
		{FromPC: 0x1003, SelfPC: 0x1008, Count: 6},
		{FromPC: 0x1002, SelfPC: 0x1008, Count: 4},
		{FromPC: 0x1003, SelfPC: 0x1008, Count: 9},
		{FromPC: SpontaneousPC, SelfPC: 0x100e, Count: 1},
	}
	empty := &Profile{Hist: Histogram{Low: 0, High: 0, Step: 1, Counts: []uint32{}}, Arcs: []Arc{}}
	f.Add(enc(sample(), Version1), enc(sample(), Version2))
	f.Add(enc(sampleV3(), Version3), enc(sampleV3(), Version3))
	f.Add(enc(dup, Version1), enc(dup, Version1))
	f.Add(enc(dup, Version2), enc(sample(), Version1))
	f.Add(enc(empty, Version1), enc(dup, Version1))
	f.Add(enc(sample(), Version2), enc(empty, Version1))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		p, err := Open(bytes.NewReader(a))
		if err != nil {
			return
		}
		q, err := Open(bytes.NewReader(b))
		if err != nil {
			return
		}
		counts := make([]uint32, len(p.Hist.Counts))
		copy(counts, q.Hist.Counts)
		q.Hist = p.Hist
		q.Hist.Counts = counts
		q.Hz = p.Hz
		canonicalize(p)
		checkMergeMatchesOracle(t, "fuzz", p, q)
	})
}
