package gmon

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// goldenV1Hex is the byte-exact version-1 encoding of sample(),
// captured from the original field-by-field encoder. The block codec
// must reproduce it bit for bit: the format is an on-disk contract.
const goldenV1Hex = "474d4f4e010000003c000000000000000010000000000000101000000000000001000000000000001000000003000000000000000500000000000000090000000100000000000000000000000000000002000000000000000000000000000000000000000000000007000000030000000210000000000000081000000000000004000000000000000310000000000000081000000000000006000000000000" +
	"00ffffffffffffffff0e100000000000000100000000000000"

func TestWriteMatchesGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteVersion(&buf, sample(), Version1); err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(goldenV1Hex)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("v1 encoding drifted from the golden bytes:\n got %x\nwant %x", buf.Bytes(), want)
	}
}

// referenceEncodeV1 is an independent hand-rolled version-1 encoder:
// every field placed with PutUint32/PutUint64 into one flat slice.
func referenceEncodeV1(p *Profile) []byte {
	out := make([]byte, 0, 48+4*len(p.Hist.Counts)+24*len(p.Arcs))
	u32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		out = append(out, b[:]...)
	}
	i64 := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		out = append(out, b[:]...)
	}
	out = append(out, 'G', 'M', 'O', 'N')
	u32(1)
	i64(p.ClockHz())
	i64(p.Hist.Low)
	i64(p.Hist.High)
	i64(p.Hist.Step)
	u32(uint32(len(p.Hist.Counts)))
	u32(uint32(len(p.Arcs)))
	for _, c := range p.Hist.Counts {
		u32(c)
	}
	for _, a := range p.Arcs {
		i64(a.FromPC)
		i64(a.SelfPC)
		i64(a.Count)
	}
	return out
}

func TestWriteMatchesReferenceEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		p := randomProfile(rng)
		got := encode(t, p)
		if want := referenceEncodeV1(p); !bytes.Equal(got, want) {
			t.Fatalf("profile %d: block codec and reference encoder disagree:\n got %x\nwant %x", i, got, want)
		}
	}
}

// TestV2RoundTripProperty: a version-2 file decodes to the same profile
// as the version-1 encoding of its canonical (sorted) form, and the
// encoding is deterministic.
func TestV2RoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		p := randomProfile(rng)
		if i%3 == 0 {
			// Exercise the spontaneous-caller sentinel: FromPC -1
			// encodes as delta-bias zero.
			p.Arcs = append(p.Arcs, Arc{FromPC: SpontaneousPC, SelfPC: 0x105, Count: 9})
		}
		var v2 bytes.Buffer
		if err := WriteVersion(&v2, p, Version2); err != nil {
			t.Fatal(err)
		}
		canon := p.Clone()
		canon.SortArcs()
		got, err := Open(bytes.NewReader(v2.Bytes()))
		if err != nil {
			t.Fatalf("profile %d: decode v2: %v", i, err)
		}
		want, err := Open(bytes.NewReader(encode(t, canon)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("profile %d: v2 round trip diverged:\n got %+v\nwant %+v", i, got, want)
		}
		var again bytes.Buffer
		if err := WriteVersion(&again, p, Version2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), v2.Bytes()) {
			t.Fatalf("profile %d: v2 encoding not deterministic", i)
		}
		// The encoder must not have reordered the caller's arcs.
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReadStatsSections(t *testing.T) {
	for _, version := range []int{Version1, Version2, Version3} {
		p := sample()
		if version == Version3 {
			p = sampleV3()
		}
		p.SortArcs() // versions 2 and 3 store arcs in canonical order
		var buf bytes.Buffer
		if err := WriteVersion(&buf, p, version); err != nil {
			t.Fatal(err)
		}
		total := int64(buf.Len())
		for _, stream := range []bool{false, true} {
			got := &Profile{}
			var st FileStats
			var err error
			if stream {
				st, err = read(bytes.NewReader(buf.Bytes()), nil, got)
			} else {
				st, err = read(nil, buf.Bytes(), got)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, p) {
				t.Fatalf("v%d stream=%v: decoded %+v, want %+v", version, stream, got, p)
			}
			if st.Version != version {
				t.Errorf("v%d: stats report version %d", version, st.Version)
			}
			header := int64(48)
			if version == Version3 {
				header = 52
			}
			if st.HeaderBytes != header {
				t.Errorf("v%d: header bytes = %d, want %d", version, st.HeaderBytes, header)
			}
			if (st.StackBytes > 0) != (version == Version3) {
				t.Errorf("v%d: stack bytes = %d", version, st.StackBytes)
			}
			if sum := st.HeaderBytes + st.HistBytes + st.ArcBytes + st.StackBytes; sum != st.TotalBytes || sum != total {
				t.Errorf("v%d: sections sum to %d, total %d, file %d", version, sum, st.TotalBytes, total)
			}
		}
	}
}

// TestLyingHeaderBoundedAlloc: a header declaring huge record counts
// over a tiny body must fail with a truncation error without first
// allocating room for the declared records.
func TestLyingHeaderBoundedAlloc(t *testing.T) {
	header := []byte("GMON")
	header = binary.LittleEndian.AppendUint32(header, Version1)
	header = binary.LittleEndian.AppendUint64(header, 60)    // hz
	header = binary.LittleEndian.AppendUint64(header, 0)     // low
	header = binary.LittleEndian.AppendUint64(header, 1<<27) // high
	header = binary.LittleEndian.AppendUint64(header, 1)     // step
	header = binary.LittleEndian.AppendUint32(header, 1<<27) // nbkt
	header = binary.LittleEndian.AppendUint32(header, 1<<27) // narc
	// Header only; both sections missing.

	before := testingAllocs(func() {
		if _, err := Open(bytes.NewReader(header)); err == nil {
			t.Error("truncated 128M-record file decoded successfully")
		}
	})
	// The decoder may allocate its chunk-granular scratch but nothing
	// near the declared 512MiB+ of records.
	if before > 1<<21 {
		t.Errorf("decoding a lying header allocated %d bytes", before)
	}
}

func testingAllocs(f func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMergeAllStreamingMatchesSequential: ReadFiles' pooled-scratch
// fold over any worker count equals the one-at-a-time fold bit for bit.
func TestMergeAllStreamingMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	for trial := 0; trial < 10; trial++ {
		k := rng.Intn(9) + 1
		names := make([]string, k)
		var want *Profile
		for i := range names {
			p := randomProfile(rng)
			names[i] = filepath.Join(dir, "gmon"+string(rune('a'+trial))+string(rune('0'+i)))
			version := Version1
			if rng.Intn(2) == 1 {
				version = Version2
			}
			if err := WriteFileVersion(names[i], p, version); err != nil {
				t.Fatal(err)
			}
			// The sequential reference decodes through the same files,
			// so v2's canonical arc order is shared by both sides.
			q, err := ReadFile(names[i])
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = q
			} else if err := want.Merge(q); err != nil {
				t.Fatal(err)
			}
		}
		for _, jobs := range []int{1, 2, 3, 8} {
			got, err := ReadFiles(context.Background(), names, jobs)
			if err != nil {
				t.Fatalf("trial %d jobs %d: %v", trial, jobs, err)
			}
			if !bytes.Equal(encode(t, got), encode(t, want)) {
				t.Fatalf("trial %d: jobs=%d merge diverged from sequential fold", trial, jobs)
			}
		}
	}
}

func TestMergeAllStreamingNamesBadFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "gmon.good")
	if err := WriteFileVersion(good, sample(), Version1); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "gmon.bad")
	if err := os.WriteFile(bad, []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFiles(context.Background(), []string{good, bad, good}, 4)
	if err == nil || !strings.Contains(err.Error(), "gmon.bad") {
		t.Errorf("error does not name the bad file: %v", err)
	}
	// Geometry mismatch is attributed to the incompatible input too.
	odd := sample()
	odd.Hist.High += 4
	odd.Hist.Counts = append(odd.Hist.Counts, 0, 0, 0, 0)
	oddName := filepath.Join(dir, "gmon.odd")
	if err := WriteFileVersion(oddName, odd, Version1); err != nil {
		t.Fatal(err)
	}
	_, err = ReadFiles(context.Background(), []string{good, good, oddName, good}, 3)
	if err == nil || !strings.Contains(err.Error(), "gmon.odd") {
		t.Errorf("error does not name the incompatible file: %v", err)
	}
}

// TestV2SmallerOnSortedProfiles: delta+varint encoding must not exceed
// the fixed-width layout on realistic (sorted, clustered-PC) profiles.
func TestV2SmallerOnSortedProfiles(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		p := randomProfile(rng)
		p.SortArcs()
		v1 := len(encode(t, p))
		var buf bytes.Buffer
		if err := WriteVersion(&buf, p, Version2); err != nil {
			t.Fatal(err)
		}
		if buf.Len() >= v1 {
			t.Fatalf("profile %d: v2 %d bytes >= v1 %d bytes", i, buf.Len(), v1)
		}
	}
}

// TestReadIntoReusesStorage: decoding a second profile into the same
// destination must not allocate new slices when capacity suffices.
func TestReadIntoReusesStorage(t *testing.T) {
	p := sample()
	enc := encode(t, p)
	var dst Profile
	if _, err := read(bytes.NewReader(enc), nil, &dst); err != nil {
		t.Fatal(err)
	}
	c0 := &dst.Hist.Counts[0]
	a0 := &dst.Arcs[0]
	if _, err := read(bytes.NewReader(enc), nil, &dst); err != nil {
		t.Fatal(err)
	}
	if &dst.Hist.Counts[0] != c0 || &dst.Arcs[0] != a0 {
		t.Error("decoding into a used profile reallocated storage that could have been reused")
	}
	if !reflect.DeepEqual(&dst, p) {
		t.Errorf("second decode = %+v, want %+v", &dst, p)
	}
}

// sortArcs is exercised through the version-2 encoder's copy-then-sort
// path; make sure unsorted inputs really are left untouched.
func TestWriteV2LeavesInputAlone(t *testing.T) {
	p := sample()
	p.Arcs = []Arc{
		{FromPC: 0x110, SelfPC: 0x111, Count: 1},
		{FromPC: 0x102, SelfPC: 0x103, Count: 2},
	}
	orig := append([]Arc(nil), p.Arcs...)
	if err := WriteVersion(io.Discard, p, Version2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Arcs, orig) {
		t.Errorf("the version-2 encoder mutated the caller's arcs: %v", p.Arcs)
	}
}
