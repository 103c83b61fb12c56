package gmon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/binio"
)

// Binary layout, version 1 (all fields little-endian, fixed width):
//
//	magic   [4]byte  "GMON"
//	version uint32   1
//	hz      int64
//	low     int64
//	high    int64
//	step    int64
//	nbkt    uint32   number of histogram buckets
//	narc    uint32   number of arcs
//	counts  [nbkt]uint32
//	arcs    [narc]{frompc int64, selfpc int64, count int64}
//
// Version 2 keeps the magic and the fixed 44-byte header but compresses
// the two record sections (the header's version field negotiates which
// decoder runs):
//
//	counts  [nbkt]uvarint
//	arcs    [narc] sorted by (frompc, selfpc):
//	        dfrom uvarint  = (frompc+1) - previous (frompc+1)   [starts at 0]
//	        self  uvarint  = selfpc - previous selfpc if dfrom == 0,
//	                         selfpc otherwise
//	        count uvarint
//
// The frompc+1 bias makes the spontaneous-caller sentinel (-1) encode
// as zero, so every varint is non-negative. Arcs decode to the same
// (FromPC, SelfPC, Count) triples as version 1; only the bytes differ.
//
// Version 3 is version 2 plus whole-stack samples. The fixed header
// grows one field (present only at version 3):
//
//	nstack uint32   number of interned stack records
//
// and a stack section follows the arcs, records sorted by PC sequence
// (lexicographic, shorter prefix first):
//
//	stacks  [nstack]:
//	        dpc0  uvarint  = PCs[0] - previous record's PCs[0]  [starts at 0]
//	        depth uvarint  = len(PCs), 1..MaxStackDepth
//	        dpc   varint   (depth-1 times) zigzag delta from the
//	                       previous PC in this record
//	        count uvarint
//
// The leaf PC delta-encodes across records (sorted, so non-negative
// uvarint); the outward frames delta-encode within the record with
// zigzag varints because a walk moves through unsorted addresses.
// docs/FORMATS.md is the narrative version.
var magic = [4]byte{'G', 'M', 'O', 'N'}

// Format versions. WriteVersion emits any of them: Version1 is the
// original fixed-width layout, Version2 the compressed one, Version3
// adds the stack-samples section. The decoder accepts all three,
// negotiated by the header's version field.
const (
	Version1 = 1
	Version2 = 2
	Version3 = 3
)

// maxRecords bounds bucket/arc/stack counts on read and write so a
// corrupt header cannot drive a huge allocation.
const maxRecords = 1 << 28

// FileStats is the on-disk layout of one decoded profile data file:
// format version and per-section byte sizes (cmd/gmondump prints it, so
// version-1-vs-2 size wins are inspectable).
type FileStats struct {
	Version     int
	HeaderBytes int64 // magic + fixed header
	HistBytes   int64 // histogram counts section
	ArcBytes    int64 // arc records section
	StackBytes  int64 // stack records section (version 3 only)
	TotalBytes  int64
}

// WriteVersion encodes p to w in the given format version. Versions 2
// and 3 store arcs (and version 3 stacks) in canonical order; when p's
// tables are not already sorted a sorted copy is encoded, and p is
// never modified. Versions 1 and 2 have no stack section; writing a
// stacked profile at those versions drops the stacks — the documented
// downgrade, applied identically by gprofd when a client asks for an
// older version.
func WriteVersion(w io.Writer, p *Profile, version int) error {
	if version < Version1 || version > Version3 {
		return fmt.Errorf("gmon: unsupported write version %d", version)
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("gmon: refusing to write invalid profile: %w", err)
	}
	arcs := p.Arcs
	if version >= Version2 && !arcsSorted(arcs) {
		arcs = append([]Arc(nil), arcs...)
		sortArcs(arcs)
	}
	var stacks []StackSample
	if version == Version3 {
		stacks = p.Stacks
		if !stacksSorted(stacks) {
			stacks = append([]StackSample(nil), stacks...)
			SortStacks(stacks)
		}
		// An interned table holds each PC sequence once, and the reader
		// refuses a repeat, so a duplicate is an error here too.
		for i := 1; i < len(stacks); i++ {
			if compareStackSamples(&stacks[i-1], &stacks[i]) == 0 {
				return fmt.Errorf("gmon: stack table repeats the PC sequence %#x", stacks[i].PCs)
			}
		}
	}
	if len(p.Hist.Counts) > maxRecords || len(arcs) > maxRecords || len(stacks) > maxRecords {
		return fmt.Errorf("gmon: implausible record counts (%d buckets, %d arcs, %d stacks)",
			len(p.Hist.Counts), len(arcs), len(stacks))
	}
	bw := binio.NewWriter(w)
	bw.Bytes(magic[:])
	bw.U32(uint32(version))
	bw.I64(p.ClockHz())
	bw.I64(p.Hist.Low)
	bw.I64(p.Hist.High)
	bw.I64(p.Hist.Step)
	bw.U32(uint32(len(p.Hist.Counts)))
	bw.U32(uint32(len(arcs)))
	if version == Version3 {
		bw.U32(uint32(len(stacks)))
	}
	if version == Version1 {
		bw.U32s(p.Hist.Counts)
		for _, a := range arcs {
			bw.I64(a.FromPC)
			bw.I64(a.SelfPC)
			bw.I64(a.Count)
		}
		return bw.Close()
	}
	for _, c := range p.Hist.Counts {
		bw.Uvarint(uint64(c))
	}
	var prevFrom1, prevSelf int64
	for _, a := range arcs {
		from1 := a.FromPC + 1
		d := uint64(from1 - prevFrom1)
		bw.Uvarint(d)
		if d == 0 {
			bw.Uvarint(uint64(a.SelfPC - prevSelf))
		} else {
			bw.Uvarint(uint64(a.SelfPC))
		}
		bw.Uvarint(uint64(a.Count))
		prevFrom1, prevSelf = from1, a.SelfPC
	}
	var prevPC0 int64
	for _, s := range stacks {
		bw.Uvarint(uint64(s.PCs[0] - prevPC0))
		bw.Uvarint(uint64(len(s.PCs)))
		for i := 1; i < len(s.PCs); i++ {
			bw.Varint(s.PCs[i] - s.PCs[i-1])
		}
		bw.Uvarint(uint64(s.Count))
		prevPC0 = s.PCs[0]
	}
	return bw.Close()
}

// WriteFileVersion writes p to the named file in the given format
// version (Version1..Version3). The block codec writes the *os.File
// directly, so there is exactly one buffer layer between records and
// the disk.
func WriteFileVersion(name string, p *Profile, version int) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := WriteVersion(f, p, version); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// decode parses one profile data file from br into p, reusing p's
// histogram, arc and stack storage when its capacity suffices, and
// reports the file's layout. Every section grows through binio.Records,
// so a header lying about its record counts allocates at most about
// twice the input actually present (over a fixed reader, the declared
// counts are checked against the bytes that remain and each section is
// sized once). Running out of bytes inside a declared section is
// truncation (io.ErrUnexpectedEOF) even at a value boundary.
func decode(br *binio.Reader, p *Profile) (st FileStats, err error) {
	defer func() { st.TotalBytes = br.Offset() }()
	var m [4]byte
	br.Full(m[:])
	if err := br.Err(); err != nil {
		return st, fmt.Errorf("gmon: reading magic: %w", err)
	}
	if m != magic {
		return st, fmt.Errorf("gmon: bad magic %q (not a profile data file)", m[:])
	}
	version := br.U32()
	if err := br.Err(); err != nil {
		return st, fmt.Errorf("gmon: reading version: %w", err)
	}
	if version < Version1 || version > Version3 {
		return st, fmt.Errorf("gmon: unsupported version %d (want %d..%d)", version, Version1, Version3)
	}
	hz := br.I64()
	h := Histogram{Low: br.I64(), High: br.I64(), Step: br.I64()}
	nbkt, narc := br.U32(), br.U32()
	var nstack uint32
	if version == Version3 {
		nstack = br.U32()
	}
	if err := br.Err(); err != nil {
		return st, fmt.Errorf("gmon: reading header: %w", eofIsTruncation(err))
	}
	if nbkt > maxRecords || narc > maxRecords {
		return st, fmt.Errorf("gmon: implausible record counts (%d buckets, %d arcs)", nbkt, narc)
	}
	if nstack > maxRecords {
		return st, fmt.Errorf("gmon: implausible stack count %d", nstack)
	}
	if hz < 0 {
		return st, fmt.Errorf("gmon: negative clock rate %d", hz)
	}
	if h.Step <= 0 {
		return st, fmt.Errorf("gmon: histogram step %d (want > 0)", h.Step)
	}
	if h.High < h.Low {
		return st, fmt.Errorf("gmon: histogram bounds [%#x,%#x) inverted", h.Low, h.High)
	}
	if want := h.NumBuckets(); int(nbkt) != want {
		return st, fmt.Errorf("gmon: histogram has %d buckets, bounds imply %d", nbkt, want)
	}
	st.Version, st.HeaderBytes = int(version), br.Offset()
	// Zero means DefaultHz (Profile.Hz); decoding it as such keeps a
	// decoded profile equal to its re-encoding, which writes ClockHz.
	p.Hz = hz
	if p.Hz == 0 {
		p.Hz = DefaultHz
	}
	h.Counts = p.Hist.Counts
	p.Hist = h
	v1 := version == Version1

	countSize := 1 // a uvarint
	if v1 {
		countSize = 4
	}
	counts, err := binio.Records(br, p.Hist.Counts, int(nbkt), countSize, func(s []uint32) error {
		if v1 {
			br.U32s(s)
		} else {
			for i := range s {
				v := br.Uvarint()
				if v > math.MaxUint32 {
					return fmt.Errorf("gmon: histogram count %d overflows uint32", v)
				}
				s[i] = uint32(v)
			}
		}
		if err := br.Err(); err != nil {
			return fmt.Errorf("gmon: reading histogram: %w", eofIsTruncation(err))
		}
		return nil
	})
	if err != nil {
		return st, err
	}
	if counts == nil {
		counts = []uint32{}
	}
	p.Hist.Counts = counts
	st.HistBytes = br.Offset() - st.HeaderBytes

	arcSize := 3 // three uvarints
	if v1 {
		arcSize = 24
	}
	var prev Arc // version 2 delta state: previous FromPC+1 and SelfPC
	done := 0
	arcs, err := binio.Records(br, p.Arcs, int(narc), arcSize, func(s []Arc) error {
		if v1 {
			decodeArcsV1(br, s)
		} else if err := decodeArcsV2(br, s, &prev); err != nil {
			return err
		}
		if err := br.Err(); err != nil {
			return fmt.Errorf("gmon: reading arc %d: %w", done, eofIsTruncation(err))
		}
		done += len(s)
		return nil
	})
	if err != nil {
		return st, err
	}
	if arcs == nil {
		arcs = []Arc{}
	}
	p.Arcs = arcs
	st.ArcBytes = br.Offset() - st.HeaderBytes - st.HistBytes

	// Reset, don't keep: when p is a reused scratch profile, a
	// stack-less file must not inherit the previous file's stacks. A
	// record is at least three uvarints: leaf pc, depth and count.
	var last []int64
	done = 0
	stacks, err := binio.Records(br, p.Stacks, int(nstack), 3, func(s []StackSample) error {
		for i := range s {
			if err := decodeStack(br, &s[i], last); err != nil {
				return err
			}
			if br.Err() != nil {
				break
			}
			last = s[i].PCs
		}
		if err := br.Err(); err != nil {
			return fmt.Errorf("gmon: reading stack %d: %w", done, eofIsTruncation(err))
		}
		done += len(s)
		return nil
	})
	if err != nil {
		return st, err
	}
	p.Stacks = stacks
	st.StackBytes = br.Offset() - st.HeaderBytes - st.HistBytes - st.ArcBytes
	return st, p.Validate()
}

// decodeArcsV1 fills dst with fixed 24-byte version-1 records, decoded
// straight out of the block buffer a batch per fill instead of field
// by field. A short section leaves br's error set.
func decodeArcsV1(br *binio.Reader, dst []Arc) {
	const arcSize = 24
	for len(dst) > 0 {
		batch := min(len(dst), binio.BufSize/arcSize)
		s := br.View(batch * arcSize)
		if s == nil {
			return
		}
		for j := range dst[:batch] {
			rec := s[j*arcSize:]
			dst[j].FromPC = int64(binary.LittleEndian.Uint64(rec))
			dst[j].SelfPC = int64(binary.LittleEndian.Uint64(rec[8:]))
			dst[j].Count = int64(binary.LittleEndian.Uint64(rec[16:]))
		}
		dst = dst[batch:]
	}
}

// decodeArcsV2 fills dst with delta-encoded version-2 records,
// continuing from prev (the previous record, its FromPC biased by +1)
// and leaving the last decoded record there. It returns an error for a
// value that overflows; a short section stops it with br's error set.
func decodeArcsV2(br *binio.Reader, dst []Arc, prev *Arc) error {
	from1, self := prev.FromPC, prev.SelfPC
	for i := range dst {
		dFrom := br.Uvarint()
		if dFrom > math.MaxInt64 || int64(dFrom) > math.MaxInt64-from1 {
			return errors.New("gmon: arc call-site pc overflows")
		}
		from1 += int64(dFrom)
		v := br.Uvarint()
		if dFrom != 0 {
			self = 0
		}
		if v > math.MaxInt64 || int64(v) > math.MaxInt64-self {
			return errors.New("gmon: arc callee pc overflows")
		}
		self += int64(v)
		cnt := br.Uvarint()
		if cnt > math.MaxInt64 {
			return errors.New("gmon: arc count overflows")
		}
		if br.Err() != nil {
			return nil
		}
		dst[i] = Arc{FromPC: from1 - 1, SelfPC: self, Count: int64(cnt)}
	}
	prev.FromPC, prev.SelfPC = from1, self
	return nil
}

// decodeStack decodes one delta-encoded version-3 stack record after
// the record last (nil before the first). The PC slice is freshly
// allocated — decoded stacks are merged by aliasing, so they must
// outlive any decode scratch — and bounded by the depth check, so a
// lying header cannot drive it past MaxStackDepth words. It returns an
// error for a malformed value; a short section stops it with br's
// error set.
func decodeStack(br *binio.Reader, s *StackSample, last []int64) error {
	var prevPC0 int64
	if last != nil {
		prevPC0 = last[0]
	}
	dpc0 := br.Uvarint()
	if dpc0 > math.MaxInt64 || int64(dpc0) > math.MaxInt64-prevPC0 {
		return errors.New("gmon: stack leaf pc overflows")
	}
	depth := br.Uvarint()
	if depth == 0 || depth > MaxStackDepth {
		if br.Err() != nil {
			return nil
		}
		return fmt.Errorf("gmon: stack depth %d (want 1..%d)", depth, MaxStackDepth)
	}
	pcs := make([]int64, depth)
	pcs[0] = prevPC0 + int64(dpc0)
	for i := 1; i < int(depth); i++ {
		delta := br.Varint()
		prev := pcs[i-1]
		if (delta > 0 && prev > math.MaxInt64-delta) || (delta < 0 && prev < math.MinInt64-delta) {
			return errors.New("gmon: stack frame pc overflows")
		}
		if pcs[i] = prev + delta; pcs[i] < 0 {
			return fmt.Errorf("gmon: stack frame has invalid pc %#x", pcs[i])
		}
	}
	cnt := br.Uvarint()
	if br.Err() != nil {
		return nil
	}
	if cnt == 0 || cnt > math.MaxInt64 {
		return fmt.Errorf("gmon: stack count %d out of range", cnt)
	}
	// The format defines records in strictly increasing canonical order
	// (the writer enforces it); accepting violations would let corrupt
	// files smuggle duplicate paths past Merge's fold and break
	// re-encoding, so the reader rejects them too.
	if last != nil && compareStacks(pcs, last) <= 0 {
		return errors.New("gmon: stack records out of order")
	}
	s.PCs, s.Count = pcs, int64(cnt)
	return nil
}

// eofIsTruncation maps a clean EOF to io.ErrUnexpectedEOF: inside a
// declared section, running out of bytes is truncation even when it
// happens at a value boundary.
func eofIsTruncation(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
