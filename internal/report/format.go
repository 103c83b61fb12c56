package report

import (
	"io"
	"math"
	"runtime"
	"strconv"
	"sync"
)

// The listings are written into reused byte buffers that are flushed
// to the destination as they fill, so rendering a 10^5-routine listing
// never holds the whole text in memory and never goes through fmt's
// reflection. Numbers are laid out by appendFloat and appendInt, which
// produce exactly what fmt's %W.Pf and %Wd would.
//
// Each section's rows are cut into fixed-size chunks that workers
// render concurrently while the caller writes the finished chunks in
// order (lineWriter.rows); whatever rows share — the first selected
// call-graph entry, the flat profile's running total, the index order —
// is worked out serially first, so the bytes never depend on the width.

// flushAt is the buffered byte count at which a line writer flushes.
const flushAt = 64 << 10

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, flushAt+1024)
	return &b
}}

// lineWriter buffers rendered lines for one io.Writer. The first write
// error sticks: later output is dropped and close reports it.
type lineWriter struct {
	w   io.Writer
	buf []byte
	err error
	bp  *[]byte
}

func newLineWriter(w io.Writer) *lineWriter {
	bp := bufPool.Get().(*[]byte)
	return &lineWriter{w: w, buf: (*bp)[:0], bp: bp}
}

// endLine is called after each complete line: it flushes once the
// buffer has reached flushAt.
func (lw *lineWriter) endLine() {
	if len(lw.buf) >= flushAt {
		lw.flush()
	}
}

func (lw *lineWriter) flush() {
	if lw.err == nil && len(lw.buf) > 0 {
		_, lw.err = lw.w.Write(lw.buf)
	}
	lw.buf = lw.buf[:0]
}

// close flushes what remains, returns the buffer to the pool and
// reports the first write error.
func (lw *lineWriter) close() error {
	lw.flush()
	*lw.bp = lw.buf
	bufPool.Put(lw.bp)
	lw.buf, lw.bp = nil, nil
	return lw.err
}

func (lw *lineWriter) str(s string) { lw.buf = append(lw.buf, s...) }

// Rows per chunk. A chunk renders to tens of KiB: enough work to
// outweigh handing it to a worker, and small enough that the chunks in
// flight stay a few hundred KiB.
const (
	entryChunk = 64   // call-graph entries
	lineChunk  = 1024 // flat-profile and index lines
)

// Width is the number of workers that render a listing for a jobs
// setting: 0 or 1 renders inline, and like the analysis stages the
// width is clamped to GOMAXPROCS, since more workers than schedulable
// CPUs is pure overhead. Inputs under two chunks render inline at any
// width.
func Width(jobs int) int { return max(1, min(jobs, runtime.GOMAXPROCS(0))) }

// rows renders rows [0, n) in chunks of size rows and writes them to
// the destination in row order. newRenderer is called once per worker
// (once in all when rendering inline) and returns the function that
// appends rows [lo, hi) to a buffer, so per-worker scratch is never
// shared. At most two chunks per worker are in flight, each in a
// reused buffer; after the first write error no further chunk is
// scheduled, and rows returns once every worker has exited.
func (lw *lineWriter) rows(n, size, jobs int, newRenderer func() func(b []byte, lo, hi int) []byte) {
	chunks := (n + size - 1) / size
	workers := min(Width(jobs), chunks)
	if workers <= 1 {
		render := newRenderer()
		for lo := 0; lo < n && lw.err == nil; lo += size {
			lw.buf = render(lw.buf, lo, min(lo+size, n))
			lw.endLine()
		}
		return
	}
	lw.flush()
	if lw.err != nil {
		return
	}
	// Chunk c renders into slot c%len(slots) and signals its done
	// channel; the next chunk for a slot is scheduled only after its
	// previous one was written, so a slot has one chunk at a time.
	type slot struct {
		bp   *[]byte
		done chan struct{}
	}
	slots := make([]slot, 2*workers)
	for i := range slots {
		slots[i] = slot{bufPool.Get().(*[]byte), make(chan struct{}, 1)}
	}
	// Sized to the slots: the caller never has more chunks scheduled.
	work := make(chan int, len(slots))
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			render := newRenderer()
			for c := range work {
				s := &slots[c%len(slots)]
				lo := c * size
				*s.bp = render((*s.bp)[:0], lo, min(lo+size, n))
				s.done <- struct{}{}
			}
		}()
	}
	next := min(len(slots), chunks)
	for c := 0; c < next; c++ {
		work <- c
	}
	for c := 0; c < chunks; c++ {
		s := &slots[c%len(slots)]
		<-s.done
		if _, lw.err = lw.w.Write(*s.bp); lw.err != nil {
			break
		}
		if next < chunks {
			work <- next
			next++
		}
	}
	close(work)
	wg.Wait()
	for _, s := range slots {
		bufPool.Put(s.bp)
	}
}

// padLeft right-aligns the bytes appended since start in a field of
// width columns, as fmt's %Ws and %Wd do.
func padLeft(b []byte, start, width int) []byte {
	n := width - (len(b) - start)
	if n <= 0 {
		return b
	}
	for i := 0; i < n; i++ {
		b = append(b, ' ')
	}
	copy(b[start+n:], b[start:len(b)-n])
	for i := start; i < start+n; i++ {
		b[i] = ' '
	}
	return b
}

// padRight left-aligns the bytes appended since start in a field of
// width columns, as fmt's %-Ws and %-Wd do.
func padRight(b []byte, start, width int) []byte {
	for n := width - (len(b) - start); n > 0; n-- {
		b = append(b, ' ')
	}
	return b
}

// appendInt appends v as fmt's %Wd (width > 0) or %-Wd (width < 0).
func appendInt(b []byte, v int64, width int) []byte {
	u := uint64(v)
	if v < 0 {
		u = -u
	}
	n := digits(u)
	if v < 0 {
		n++
	}
	if width < 0 {
		b = putDigits(b, u, n, v < 0)
		return padRight(b, len(b)-n, -width)
	}
	for ; width > n; width-- {
		b = append(b, ' ')
	}
	return putDigits(b, u, n, v < 0)
}

// digits returns the number of decimal digits in u.
func digits(u uint64) int {
	n := 1
	for ; n < len(pow10) && u >= pow10[n]; n++ {
	}
	return n
}

// pow10[i] is 10^i, up to the largest power below 2^64.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// putDigits appends u in n bytes, written right to left: a leading
// '-' when neg, then u's decimal digits.
func putDigits(b []byte, u uint64, n int, neg bool) []byte {
	b = append(b, make([]byte, n)...)
	for i := len(b) - 1; ; i-- {
		b[i] = byte('0' + u%10)
		if u /= 10; u == 0 {
			break
		}
	}
	if neg {
		b[len(b)-n] = '-'
	}
	return b
}

// fastMax bounds appendFloat's integer path: below it x·10^prec is
// under 2^52 for every prec it takes, so each half unit q±½ is a
// double and an FMA residual against it has the sign of the exact
// difference.
const fastMax = 1 << 52 / 100.0

// scale[p] is 10^p for the precisions the integer path takes.
var scale = [...]float64{1, 10, 100}

// appendFloat appends x exactly as fmt's %W.Pf with W = width and
// P = prec; width 0 is the unpadded %.Pf.
//
// fmt rounds the double's exact binary value to P decimals, ties to
// even. Below fastMax that is an integer count q of 10^-P units: q is
// x·10^P rounded as a double and then to an integer, which is within
// one of the exact result, and the sign of an exact residual
// x·10^P − (q±½), computed with one math.FMA, moves it to the right
// integer. The digits of q are then written right to left straight
// into the padded field. NaN, the infinities, larger magnitudes and
// other precisions go to strconv's 'f'.
func appendFloat(b []byte, x float64, width, prec int) []byte {
	ax := math.Abs(x)
	if !(ax < fastMax) || prec < 0 || prec >= len(scale) {
		start := len(b)
		b = strconv.AppendFloat(b, x, 'f', prec, 64)
		return padLeft(b, start, width)
	}
	s := scale[prec]
	// An exact half q±½ is a double here, so the product lands on it
	// only when it is one and RoundToEven breaks the tie as fmt does; a
	// product rounded onto or across a half is caught by its residual.
	q := math.RoundToEven(ax * s)
	if math.FMA(ax, s, -(q+0.5)) > 0 {
		q++
	} else if math.FMA(ax, s, -(q-0.5)) < 0 {
		q--
	}
	u := uint64(q)
	neg := math.Signbit(x)
	// n is the field's length without padding: the sign, the integer
	// digits (at least one) and, for prec > 0, the point and prec
	// decimals.
	n := digits(u / uint64(s))
	if prec > 0 {
		n += 1 + prec
	}
	if neg {
		n++
	}
	for ; width > n; width-- {
		b = append(b, ' ')
	}
	b = append(b, make([]byte, n)...)
	i := len(b) - 1
	for range prec {
		b[i] = byte('0' + u%10)
		u /= 10
		i--
	}
	if prec > 0 {
		b[i] = '.'
		i--
	}
	for {
		b[i] = byte('0' + u%10)
		i--
		if u /= 10; u == 0 {
			break
		}
	}
	if neg {
		b[i] = '-'
	}
	return b
}
