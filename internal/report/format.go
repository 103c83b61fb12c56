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
// reflection. Numbers are laid out by appendFixed, which produces
// exactly what fmt's %W.Pf would.
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
	start := len(b)
	b = strconv.AppendInt(b, v, 10)
	if width < 0 {
		return padRight(b, start, -width)
	}
	return padLeft(b, start, width)
}

// appendFloat appends x exactly as fmt's %W.Pf with W = width and
// P = prec.
func appendFloat(b []byte, x float64, width, prec int) []byte {
	start := len(b)
	b = appendFixed(b, x, prec)
	return padLeft(b, start, width)
}

// pow10 holds the powers of ten up to fixedMax; every one is exactly
// representable, so comparing against them is exact.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// roundsUp[p] is the double nearest 0.5·10^-p. Both lie just above the
// real half, which no double equals, so a value of at least roundsUp[p]
// is exactly one that %.{p}f rounds up to 10^-p.
var roundsUp = [...]float64{1: 0.05, 2: 0.005}

// fixedMax bounds the fast path: below it a %.2f needs at most 17
// significant digits, inside strconv's Ryu fixed-precision range.
const fixedMax = 1e15

// appendFixed appends x as fmt's %.Pf would, which is strconv's 'f'
// with precision prec, NaN and infinities included.
//
// strconv's 'f' with an explicit precision always takes the
// arbitrary-precision slow path. Its 'e' format with at most 18 digits
// takes the exact Ryu fixed-precision path instead, and rounds to the
// same decimal place when asked for the right number of significant
// digits: a value whose leading digit sits at 10^e needs e+1+prec of
// them. The digits are then laid out as 'f' would. Values below
// 10^-prec, zero among them, need no significant digit: they print as
// a signed zero or one unit in the last place. Whatever this cannot do
// exactly falls back to 'f': NaN and infinities, magnitudes of fixedMax
// and above, precisions above 2, and roundings that carry into a new
// leading digit (where the 'e' exponent differs from e).
func appendFixed(b []byte, x float64, prec int) []byte {
	ax := math.Abs(x)
	if !(ax < fixedMax) || prec < 0 || prec > 2 {
		return strconv.AppendFloat(b, x, 'f', prec, 64)
	}
	e := decExp(ax)
	digits := e + 1 + prec
	if digits <= 0 {
		// Below 10^-prec: the value rounds to a signed zero or to one
		// unit in the last place.
		if digits == 0 && prec == 0 {
			return strconv.AppendFloat(b, x, 'f', prec, 64)
		}
		if math.Signbit(x) {
			b = append(b, '-')
		}
		if prec == 0 {
			return append(b, '0')
		}
		b = append(b, "0."...)
		for i := 1; i < prec; i++ {
			b = append(b, '0')
		}
		if digits == 0 && ax >= roundsUp[prec] {
			return append(b, '1')
		}
		return append(b, '0')
	}
	// s is "d.ddde±XX", or "de±XX" for a single digit.
	var tmp [32]byte
	s := strconv.AppendFloat(tmp[:0], ax, 'e', digits-1, 64)
	ePos := 1
	if digits > 1 {
		ePos = 1 + digits
	}
	if exp, ok := parseExp(s[ePos:]); !ok || exp != e {
		return strconv.AppendFloat(b, x, 'f', prec, 64)
	}
	if x < 0 {
		b = append(b, '-')
	}
	// digit returns the i'th significant digit, skipping the point.
	digit := func(i int) byte {
		if i == 0 {
			return s[0]
		}
		return s[1+i]
	}
	if e < 0 {
		// 0 < ax < 1: "0.", then -e-1 zeros, then every digit.
		b = append(b, '0', '.')
		for i := 0; i < -e-1; i++ {
			b = append(b, '0')
		}
		for i := 0; i < digits; i++ {
			b = append(b, digit(i))
		}
		return b
	}
	for i := 0; i <= e; i++ {
		b = append(b, digit(i))
	}
	if prec > 0 {
		b = append(b, '.')
		for i := e + 1; i < digits; i++ {
			b = append(b, digit(i))
		}
	}
	return b
}

// decExp returns floor(log10(ax)) for 10^-3 <= ax < fixedMax, and -4
// for anything smaller, zero included.
func decExp(ax float64) int {
	if ax >= 1 {
		e := 0
		for e+1 < len(pow10) && ax >= pow10[e+1] {
			e++
		}
		return e
	}
	// The doubles nearest 0.1, 0.01 and 0.001 all lie just above the
	// real powers, so these comparisons are exact too.
	switch {
	case ax >= 0.1:
		return -1
	case ax >= 0.01:
		return -2
	case ax >= 0.001:
		return -3
	}
	return -4
}

// parseExp parses an 'e' exponent suffix such as "e+01" or "e-05".
func parseExp(s []byte) (int, bool) {
	if len(s) < 3 || s[0] != 'e' {
		return 0, false
	}
	v := 0
	for _, c := range s[2:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	if s[1] == '-' {
		v = -v
	}
	return v, true
}
