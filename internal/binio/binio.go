// Package binio is the little-endian block codec beneath the repo's two
// binary file formats (internal/gmon profile data and internal/object
// executables). Values are encoded at fixed offsets into a reused block
// buffer with binary.LittleEndian.PutUint*/Uint* — no per-field
// reflection, no interface boxing, no per-record allocation — and the
// blocks move to or from the underlying stream in large writes/reads.
// Buffers are pooled, so opening a codec on a new stream allocates
// nothing in steady state.
//
// Both Writer and Reader are error-sticky: after the first failure every
// further call is a cheap no-op and the error is reported by Err (and by
// Flush/Close on the write side), so codecs can encode a whole section
// and check once at the boundary.
package binio

import (
	"encoding/binary"
	"errors"
	"io"
	"sync"
)

// BufSize is the block size; one block is the unit of transfer to and
// from the underlying stream.
const BufSize = 64 * 1024

// ErrOverflow reports a varint encoding that does not fit in 64 bits.
var ErrOverflow = errors.New("binio: varint overflows 64 bits")

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, BufSize)
	return &b
}}

// Writer encodes little-endian values into pooled blocks flushed to w.
type Writer struct {
	w   io.Writer
	buf []byte
	n   int   // bytes pending in buf
	off int64 // total bytes accepted
	err error
}

// NewWriter returns a Writer on w backed by a pooled block buffer.
// Close returns the buffer to the pool.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: *bufPool.Get().(*[]byte)}
}

func (b *Writer) flush() {
	if b.err != nil || b.n == 0 {
		return
	}
	_, err := b.w.Write(b.buf[:b.n])
	b.n = 0
	if err != nil {
		b.err = err
	}
}

// grab returns scratch for the next n encoded bytes, flushing the block
// first if it is full. After an error it hands out a dead region so
// callers need no per-field checks.
func (b *Writer) grab(n int) []byte {
	if b.n+n > len(b.buf) {
		b.flush()
	}
	if b.err != nil {
		return b.buf[:n]
	}
	s := b.buf[b.n : b.n+n]
	b.n += n
	b.off += int64(n)
	return s
}

// U32 encodes a little-endian uint32.
func (b *Writer) U32(v uint32) { binary.LittleEndian.PutUint32(b.grab(4), v) }

// I32 encodes a little-endian int32.
func (b *Writer) I32(v int32) { b.U32(uint32(v)) }

// U64 encodes a little-endian uint64.
func (b *Writer) U64(v uint64) { binary.LittleEndian.PutUint64(b.grab(8), v) }

// I64 encodes a little-endian int64.
func (b *Writer) I64(v int64) { b.U64(uint64(v)) }

// Uvarint encodes v in LEB128 form (1-10 bytes).
func (b *Writer) Uvarint(v uint64) {
	if b.n+binary.MaxVarintLen64 > len(b.buf) {
		b.flush()
	}
	if b.err != nil {
		return
	}
	n := binary.PutUvarint(b.buf[b.n:], v)
	b.n += n
	b.off += int64(n)
}

// Varint encodes v as a zigzag-mapped LEB128 varint (1-10 bytes):
// small magnitudes of either sign encode short, which is what makes
// delta-encoding unsorted PC sequences (gmon v3 stack records) pay.
func (b *Writer) Varint(v int64) {
	b.Uvarint(uint64(v)<<1 ^ uint64(v>>63))
}

// AppendUvarint appends v in LEB128 form to dst — the in-memory
// counterpart of Writer.Uvarint, for encoders that assemble
// length-prefixed messages (protobuf wire format) before streaming.
func AppendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// Bytes copies p into the stream; blocks larger than the buffer bypass
// it entirely.
func (b *Writer) Bytes(p []byte) {
	if b.err != nil {
		return
	}
	if len(p) >= len(b.buf) {
		b.flush()
		if b.err != nil {
			return
		}
		if _, err := b.w.Write(p); err != nil {
			b.err = err
			return
		}
		b.off += int64(len(p))
		return
	}
	if b.n+len(p) > len(b.buf) {
		b.flush()
		if b.err != nil {
			return
		}
	}
	copy(b.buf[b.n:], p)
	b.n += len(p)
	b.off += int64(len(p))
}

// String copies s into the stream without converting it to a byte
// slice. Length prefixes are the caller's concern.
func (b *Writer) String(s string) {
	if b.err != nil {
		return
	}
	if len(s) >= len(b.buf) {
		b.flush()
		if b.err != nil {
			return
		}
		if _, err := io.WriteString(b.w, s); err != nil {
			b.err = err
			return
		}
		b.off += int64(len(s))
		return
	}
	if b.n+len(s) > len(b.buf) {
		b.flush()
		if b.err != nil {
			return
		}
	}
	copy(b.buf[b.n:], s)
	b.n += len(s)
	b.off += int64(len(s))
}

// U32s encodes a []uint32 block-wise.
func (b *Writer) U32s(vs []uint32) {
	for len(vs) > 0 && b.err == nil {
		if b.n+4 > len(b.buf) {
			b.flush()
			continue
		}
		max := (len(b.buf) - b.n) / 4
		if max > len(vs) {
			max = len(vs)
		}
		out := b.buf[b.n:]
		for i, v := range vs[:max] {
			binary.LittleEndian.PutUint32(out[i*4:], v)
		}
		b.n += max * 4
		b.off += int64(max * 4)
		vs = vs[max:]
	}
}

// I64s encodes a []int64 block-wise.
func (b *Writer) I64s(vs []int64) {
	for len(vs) > 0 && b.err == nil {
		if b.n+8 > len(b.buf) {
			b.flush()
			continue
		}
		max := (len(b.buf) - b.n) / 8
		if max > len(vs) {
			max = len(vs)
		}
		out := b.buf[b.n:]
		for i, v := range vs[:max] {
			binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
		}
		b.n += max * 8
		b.off += int64(max * 8)
		vs = vs[max:]
	}
}

// Offset reports the total bytes accepted so far (pending or flushed).
func (b *Writer) Offset() int64 { return b.off }

// Err reports the first error encountered.
func (b *Writer) Err() error { return b.err }

// Flush writes the pending block to the stream.
func (b *Writer) Flush() error {
	b.flush()
	return b.err
}

// Close flushes and returns the block buffer to the pool. The Writer
// must not be used afterwards.
func (b *Writer) Close() error {
	b.flush()
	if b.buf != nil {
		buf := b.buf
		b.buf = nil
		bufPool.Put(&buf)
	}
	return b.err
}

// Reader decodes little-endian values from pooled blocks filled from r,
// or — when built over a fixed byte slice with NewBytesReader — directly
// from the caller's memory with no buffer and no copying.
type Reader struct {
	r        io.Reader
	buf      []byte
	pos, lim int   // unread bytes are buf[pos:lim]
	off      int64 // total bytes consumed by the caller
	fixed    bool  // buf is caller memory: never refill, never pool
	err      error
}

// NewReader returns a Reader on r backed by a pooled block buffer.
// Close returns the buffer to the pool.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, buf: *bufPool.Get().(*[]byte)}
}

// NewBytesReader returns a Reader decoding directly from data — no block
// buffer, no memcpy. View returns subslices of data itself (valid for
// the life of data, with no length cap), which is what makes decoding
// over a memory-mapped file zero-copy. Close does not pool data.
func NewBytesReader(data []byte) *Reader {
	return &Reader{buf: data, lim: len(data), fixed: true}
}

// fill ensures at least n unread bytes are buffered (for streaming
// readers n must be at most BufSize; fixed readers have the whole input
// resident and accept any n). A clean end of stream at a value boundary
// surfaces as io.EOF; one inside a value as io.ErrUnexpectedEOF.
func (b *Reader) fill(n int) bool {
	if b.err != nil {
		return false
	}
	if b.lim-b.pos >= n {
		return true
	}
	if b.fixed {
		if b.lim > b.pos {
			b.err = io.ErrUnexpectedEOF
		} else {
			b.err = io.EOF
		}
		return false
	}
	copy(b.buf, b.buf[b.pos:b.lim])
	b.lim -= b.pos
	b.pos = 0
	for b.lim < n {
		m, err := b.r.Read(b.buf[b.lim:])
		b.lim += m
		if b.lim >= n {
			return true
		}
		if err != nil {
			if err == io.EOF && b.lim > 0 {
				err = io.ErrUnexpectedEOF
			}
			b.err = err
			return false
		}
	}
	return true
}

// Byte decodes one byte.
func (b *Reader) Byte() byte {
	if !b.fill(1) {
		return 0
	}
	v := b.buf[b.pos]
	b.pos++
	b.off++
	return v
}

// U32 decodes a little-endian uint32.
func (b *Reader) U32() uint32 {
	if !b.fill(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(b.buf[b.pos:])
	b.pos += 4
	b.off += 4
	return v
}

// I32 decodes a little-endian int32.
func (b *Reader) I32() int32 { return int32(b.U32()) }

// U64 decodes a little-endian uint64.
func (b *Reader) U64() uint64 {
	if !b.fill(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(b.buf[b.pos:])
	b.pos += 8
	b.off += 8
	return v
}

// I64 decodes a little-endian int64.
func (b *Reader) I64() int64 { return int64(b.U64()) }

// Uvarint decodes a LEB128 varint, rejecting encodings past 64 bits
// with ErrOverflow.
func (b *Reader) Uvarint() uint64 {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		c := b.Byte()
		if b.err != nil {
			return 0
		}
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				b.err = ErrOverflow
				return 0
			}
			return x | uint64(c)<<s
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	b.err = ErrOverflow
	return 0
}

// Varint decodes a zigzag-mapped LEB128 varint written by
// Writer.Varint, rejecting encodings past 64 bits with ErrOverflow.
func (b *Reader) Varint() int64 {
	u := b.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// View returns the next n decoded bytes in place without copying and
// advances past them. On a streaming reader n must be at most BufSize
// and the slice is valid only until the next Reader call; on a fixed
// reader n is uncapped and the slice aliases the underlying data for
// its whole life. nil means Err is set.
func (b *Reader) View(n int) []byte {
	if !b.fill(n) {
		return nil
	}
	s := b.buf[b.pos : b.pos+n]
	b.pos += n
	b.off += int64(n)
	return s
}

// Full decodes exactly len(p) bytes, with io.ReadFull semantics at end
// of stream.
func (b *Reader) Full(p []byte) {
	n := copy(p, b.buf[b.pos:b.lim])
	b.pos += n
	b.off += int64(n)
	p = p[n:]
	if len(p) == 0 || b.err != nil {
		return
	}
	if b.fixed {
		if n > 0 {
			b.err = io.ErrUnexpectedEOF
		} else {
			b.err = io.EOF
		}
		return
	}
	got, err := io.ReadFull(b.r, p)
	b.off += int64(got)
	if err != nil {
		if err == io.EOF && n > 0 {
			err = io.ErrUnexpectedEOF
		}
		b.err = err
	}
}

// U32s decodes a []uint32 block-wise.
func (b *Reader) U32s(dst []uint32) {
	for len(dst) > 0 {
		if b.lim-b.pos < 4 && !b.fill(4) {
			return
		}
		avail := (b.lim - b.pos) / 4
		if avail > len(dst) {
			avail = len(dst)
		}
		src := b.buf[b.pos:]
		for i := range dst[:avail] {
			dst[i] = binary.LittleEndian.Uint32(src[i*4:])
		}
		b.pos += avail * 4
		b.off += int64(avail * 4)
		dst = dst[avail:]
	}
}

// I64s decodes a []int64 block-wise.
func (b *Reader) I64s(dst []int64) {
	for len(dst) > 0 {
		if b.lim-b.pos < 8 && !b.fill(8) {
			return
		}
		avail := (b.lim - b.pos) / 8
		if avail > len(dst) {
			avail = len(dst)
		}
		src := b.buf[b.pos:]
		for i := range dst[:avail] {
			dst[i] = int64(binary.LittleEndian.Uint64(src[i*8:]))
		}
		b.pos += avail * 8
		b.off += int64(avail * 8)
		dst = dst[avail:]
	}
}

// Offset reports the total bytes consumed so far.
func (b *Reader) Offset() int64 { return b.off }

// firstBatch is the batch Records starts from when it cannot check a
// declared count against the input.
const firstBatch = 8192

// Records decodes a section of n records, each at least minSize bytes
// of input, into dst's storage (reused when its capacity suffices). It
// grows the result batch by batch and calls decode to fill each new
// batch, stopping at decode's first error.
//
// A declared count is trusted only as far as the input bounds it. On a
// fixed reader whose remaining bytes can hold the records, the result
// is sized once. Otherwise batches start at firstBatch records and
// never exceed the records already decoded, so the result at most
// doubles per batch (linear total copying) and a header lying about n
// allocates at most about twice what the input actually holds. Each
// growth is to the exact length needed, so a complete section ends
// with no spare capacity.
func Records[T any](b *Reader, dst []T, n, minSize int, decode func([]T) error) ([]T, error) {
	dst = dst[:0]
	for len(dst) < n {
		have := len(dst)
		c := n - have
		if !b.fixed || c*minSize > b.lim-b.pos {
			c = min(c, max(have, firstBatch))
		}
		if cap(dst) < have+c {
			grown := make([]T, have, have+c)
			copy(grown, dst)
			dst = grown
		}
		dst = dst[:have+c]
		if err := decode(dst[have:]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// Err reports the first error encountered.
func (b *Reader) Err() error { return b.err }

// Close returns the block buffer to the pool (fixed readers release
// their reference to the caller's data instead — caller memory is never
// pooled). The Reader must not be used afterwards.
func (b *Reader) Close() error {
	if b.buf != nil && !b.fixed {
		buf := b.buf
		bufPool.Put(&buf)
	}
	b.buf = nil
	if b.err == io.EOF {
		return nil
	}
	return b.err
}
