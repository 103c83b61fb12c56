package gmon

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/binio"
)

// sampleV3 is sample() plus a stack table, in canonical order.
func sampleV3() *Profile {
	p := sample()
	p.Stacks = []StackSample{
		{PCs: []int64{0x1003}, Count: 2},
		{PCs: []int64{0x1003, 0x1009}, Count: 7},
		{PCs: []int64{0x1003, 0x1009, 0x1001}, Count: 1},
		{PCs: []int64{0x1008, 0x1004}, Count: 5},
		{PCs: []int64{0x100e}, Count: 3},
	}
	return p
}

func TestV3RoundTrip(t *testing.T) {
	p := sampleV3()
	var buf bytes.Buffer
	if err := WriteVersion(&buf, p, Version3); err != nil {
		t.Fatal(err)
	}
	q, err := Open(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	p.SortArcs() // version 3 stores arcs in canonical order
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("v3 round trip diverged:\n got %+v\nwant %+v", q, p)
	}
}

// TestV3DowngradeDropsStacks: encoding a stacked profile at v1 or v2
// keeps the histogram and arcs byte-identical to a stack-less profile —
// pre-v3 consumers see exactly the bytes they always saw.
func TestV3DowngradeDropsStacks(t *testing.T) {
	p := sampleV3()
	bare := p.Clone()
	bare.Stacks = nil
	for _, version := range []int{Version1, Version2} {
		var with, without bytes.Buffer
		if err := WriteVersion(&with, p, version); err != nil {
			t.Fatal(err)
		}
		if err := WriteVersion(&without, bare, version); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(with.Bytes(), without.Bytes()) {
			t.Errorf("v%d encoding of a stacked profile differs from the stack-less encoding", version)
		}
		q, err := Open(bytes.NewReader(with.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if q.Stacks != nil {
			t.Errorf("v%d decode grew stacks: %v", version, q.Stacks)
		}
	}
}

// TestV3RoundTripProperty: random stack tables survive the v3 codec.
func TestV3RoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		p := randomProfile(rng)
		nstack := rng.Intn(20)
		seen := map[string]bool{}
		for len(p.Stacks) < nstack {
			depth := 1 + rng.Intn(6)
			pcs := make([]int64, depth)
			for i := range pcs {
				pcs[i] = int64(rng.Intn(1 << 16))
			}
			if seen[fmt.Sprint(pcs)] {
				continue
			}
			seen[fmt.Sprint(pcs)] = true
			p.Stacks = append(p.Stacks, StackSample{PCs: pcs, Count: 1 + int64(rng.Intn(1000))})
		}
		p.SortStacks()
		var buf bytes.Buffer
		if err := WriteVersion(&buf, p, Version3); err != nil {
			t.Fatal(err)
		}
		q, err := Open(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		p.SortArcs()
		if q.Stacks == nil {
			q.Stacks = []StackSample{}
		}
		if p.Stacks == nil {
			p.Stacks = []StackSample{}
		}
		if !reflect.DeepEqual(p.Stacks, q.Stacks) {
			t.Fatalf("trial %d: stacks diverged:\n got %+v\nwant %+v", trial, q.Stacks, p.Stacks)
		}
	}
}

// TestV3StreamingWriterReader: a v3 file fed to the stream decoder one
// byte per Read, so every record straddles block refills, decodes to
// the same profile and section sizes as the in-memory decode; a stream
// cut inside the stack section fails as truncated; and a reused
// scratch profile drops its stacks when the next file has none.
func TestV3StreamingWriterReader(t *testing.T) {
	p := sampleV3()
	p.SortArcs()
	var buf bytes.Buffer
	if err := WriteVersion(&buf, p, Version3); err != nil {
		t.Fatal(err)
	}

	var whole Profile
	wst, err := read(nil, buf.Bytes(), &whole)
	if err != nil {
		t.Fatal(err)
	}
	var streamed Profile
	sst, err := read(iotest.OneByteReader(bytes.NewReader(buf.Bytes())), nil, &streamed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed.Stacks, p.Stacks) {
		t.Fatalf("stacks = %+v, want %+v", streamed.Stacks, p.Stacks)
	}
	if !reflect.DeepEqual(&streamed, &whole) {
		t.Fatalf("stream decode %+v, in-memory decode %+v", &streamed, &whole)
	}
	if sst != wst {
		t.Errorf("stream stats %+v, in-memory stats %+v", sst, wst)
	}
	if sst.StackBytes <= 0 {
		t.Errorf("StackBytes = %d, want > 0", sst.StackBytes)
	}
	if sst.TotalBytes != int64(buf.Len()) {
		t.Errorf("TotalBytes = %d, want %d", sst.TotalBytes, buf.Len())
	}

	cut := buf.Bytes()[:buf.Len()-1]
	if _, err := read(iotest.OneByteReader(bytes.NewReader(cut)), nil, &Profile{}); !errors.Is(err, io.ErrUnexpectedEOF) ||
		!strings.Contains(err.Error(), "stack") {
		t.Errorf("stream cut in the stack section: err = %v", err)
	}

	var v2 bytes.Buffer
	if err := WriteVersion(&v2, sample(), Version2); err != nil {
		t.Fatal(err)
	}
	if _, err := read(bytes.NewReader(v2.Bytes()), nil, &streamed); err != nil {
		t.Fatal(err)
	}
	if len(streamed.Stacks) != 0 {
		t.Errorf("reused profile kept %d stacks from the previous file", len(streamed.Stacks))
	}
}

// TestV3WriterContract: the version-3 encoder refuses a stack table it
// could not write in strictly increasing order — a repeated PC
// sequence, which the reader would refuse too — and stack records that
// break the format's bounds, and it orders an unsorted table itself.
func TestV3WriterContract(t *testing.T) {
	withStacks := func(stacks ...StackSample) *Profile {
		p := sample()
		p.Stacks = stacks
		return p
	}
	bad := map[string]*Profile{
		"duplicate stack":  withStacks(StackSample{PCs: []int64{5, 7}, Count: 1}, StackSample{PCs: []int64{5, 7}, Count: 2}),
		"empty stack":      withStacks(StackSample{PCs: nil, Count: 1}),
		"overdeep stack":   withStacks(StackSample{PCs: make([]int64, MaxStackDepth+1), Count: 1}),
		"zero-count stack": withStacks(StackSample{PCs: []int64{6}, Count: 0}),
		"negative pc":      withStacks(StackSample{PCs: []int64{-1}, Count: 1}),
	}
	for name, p := range bad {
		if err := WriteVersion(io.Discard, p, Version3); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	for _, version := range []int{0, Version3 + 1} {
		if err := WriteVersion(io.Discard, sample(), version); err == nil {
			t.Errorf("write version %d accepted", version)
		}
	}
	unsorted := withStacks(StackSample{PCs: []int64{5, 7}, Count: 1}, StackSample{PCs: []int64{5, 6}, Count: 1})
	var buf bytes.Buffer
	if err := WriteVersion(&buf, unsorted, Version3); err != nil {
		t.Fatal(err)
	}
	q, err := Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := []StackSample{unsorted.Stacks[1], unsorted.Stacks[0]}; !reflect.DeepEqual(q.Stacks, want) {
		t.Errorf("stacks = %+v, want %+v", q.Stacks, want)
	}
	if unsorted.Stacks[0].PCs[1] != 7 {
		t.Error("the encoder sorted the caller's stack table")
	}
}

// v3Bytes assembles a v3 file with no histogram or arcs and the given
// raw stack-section bytes, for hostile-input tests that need precise
// control over the wire bytes.
func v3Bytes(nstack uint32, section []byte) []byte {
	b := []byte("GMON")
	b = binary.LittleEndian.AppendUint32(b, Version3)
	b = binary.LittleEndian.AppendUint64(b, 60) // hz
	b = binary.LittleEndian.AppendUint64(b, 0)  // low
	b = binary.LittleEndian.AppendUint64(b, 0)  // high
	b = binary.LittleEndian.AppendUint64(b, 1)  // step
	b = binary.LittleEndian.AppendUint32(b, 0)  // nbkt
	b = binary.LittleEndian.AppendUint32(b, 0)  // narc
	b = binary.LittleEndian.AppendUint32(b, nstack)
	return append(b, section...)
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func TestV3HostileInputs(t *testing.T) {
	uv := func(dst []byte, vs ...uint64) []byte {
		for _, v := range vs {
			dst = binio.AppendUvarint(dst, v)
		}
		return dst
	}
	cases := []struct {
		name string
		data []byte
		want string // error substring
	}{
		{"lying stack count, empty section", v3Bytes(3, nil), "unexpected EOF"},
		{"lying stack count, partial section", v3Bytes(2, uv(nil, 7, 1, 4)), "unexpected EOF"},
		{"depth zero", v3Bytes(1, uv(nil, 7, 0, 4)), "stack depth"},
		{"depth overflow", v3Bytes(1, uv(nil, 7, MaxStackDepth+1)), "stack depth"},
		{"count zero", v3Bytes(1, uv(nil, 7, 1, 0)), "stack count"},
		{"leaf pc varint overflow", v3Bytes(1, append(bytes.Repeat([]byte{0xff}, 9), 0x7f)), "overflow"},
		{"frame pc negative", v3Bytes(1, uv(uv(nil, 7, 2), zigzag(-8), 1)), "invalid pc"},
		{"records out of order", v3Bytes(2, uv(nil, 7, 2, 8, 1, 0, 2, 9, 1)), "out of order"},
		{"duplicate records", v3Bytes(2, uv(nil, 7, 1, 1, 0, 1, 1)), "out of order"},
	}
	for _, tc := range cases {
		_, err := Open(bytes.NewReader(tc.data))
		if err == nil {
			t.Errorf("%s: decoded successfully", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestV3LyingStackCountBoundedAlloc: a header declaring 2^27 stack
// records over an empty body must fail without allocating room for
// them — and a single record claiming MaxStackDepth frames over a
// truncated body is bounded by the depth check.
func TestV3LyingStackCountBoundedAlloc(t *testing.T) {
	data := v3Bytes(1<<27, nil)
	grew := testingAllocs(func() {
		if _, err := Open(bytes.NewReader(data)); err == nil {
			t.Error("truncated 128M-stack file decoded successfully")
		}
	})
	if grew > 1<<21 {
		t.Errorf("decoding a lying stack count allocated %d bytes", grew)
	}
}

// TestV3MergeStacks: merging profiles folds equal paths, keeps distinct
// ones, and stays canonically sorted; a stack-less profile merged into
// a stacked one leaves the stacks alone.
func TestV3MergeStacks(t *testing.T) {
	a := sampleV3()
	b := sampleV3()
	b.Stacks = []StackSample{
		{PCs: []int64{0x1003, 0x1009}, Count: 3}, // folds into a's
		{PCs: []int64{0x1002}, Count: 8},         // new, sorts first
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	want := []StackSample{
		{PCs: []int64{0x1002}, Count: 8},
		{PCs: []int64{0x1003}, Count: 2},
		{PCs: []int64{0x1003, 0x1009}, Count: 10},
		{PCs: []int64{0x1003, 0x1009, 0x1001}, Count: 1},
		{PCs: []int64{0x1008, 0x1004}, Count: 5},
		{PCs: []int64{0x100e}, Count: 3},
	}
	if !reflect.DeepEqual(a.Stacks, want) {
		t.Fatalf("merged stacks = %+v, want %+v", a.Stacks, want)
	}

	c := sample() // no stacks
	if err := a.Merge(c); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Stacks, want) {
		t.Fatalf("stack-less merge changed stacks: %+v", a.Stacks)
	}
}

// TestV3OpenReaderGzip: the transport sniff composes with v3 payloads.
func TestV3OpenReaderGzip(t *testing.T) {
	p := sampleV3()
	var raw bytes.Buffer
	if err := WriteVersion(&raw, p, Version3); err != nil {
		t.Fatal(err)
	}
	p.SortArcs() // version 3 stores arcs in canonical order
	zipped := gzipped(t, raw.Bytes())
	for _, data := range [][]byte{raw.Bytes(), zipped} {
		q, err := Open(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatal("v3 via Open diverged")
		}
	}
}
