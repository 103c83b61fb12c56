package mon

import "repro/internal/gmon"

// StackCollector interns whole-call-stack samples — the retrospective's
// fix for §3.2's equal-cost-per-call assumption, factored out of
// Collector so it can also run standalone (the stack-walk benchmark
// drives one directly). The same arena discipline as the arc
// table, adapted to variable-length keys: every interned PC sequence
// lives in one shared arena slice, cells chain off a power-of-two hash
// of the sequence, and generation tags make Reset O(1). The walk
// reuses one buffer, so the steady state — a tick whose stack was seen
// before — allocates nothing.
type StackCollector struct {
	walker FrameWalker
	depth  int     // frames per sample including the leaf
	buf    []int64 // reused walk buffer: [0]=leaf pc, rest RAs
	tab    []int32 // hash: slot -> cells head index
	tabGen []uint32
	cells  []stackCell // all interned sequences, insertion order
	pcs    []int64     // arena backing every sequence
	gen    uint32

	samples int64
	inserts int64
	probes  int64
}

// stackCell is one interned stack-table entry: a [off, off+n) window
// into the shared PC arena plus the observation count, chained by
// index like arcCell.
type stackCell struct {
	off   int32
	n     int32
	count int64
	next  int32 // cells index of the next cell in this slot; -1 ends it
}

// NewStackCollector creates a collector recording the leaf PC plus up
// to maxDepth return addresses per sample; maxDepth <= 0 means
// DefaultStackDepth, and values are clamped so a sample always fits
// gmon.MaxStackDepth. The walker may be nil (attach later, or record
// leaf-only stacks).
func NewStackCollector(w FrameWalker, maxDepth int) *StackCollector {
	if maxDepth <= 0 {
		maxDepth = DefaultStackDepth
	}
	if maxDepth > gmon.MaxStackDepth-1 {
		maxDepth = gmon.MaxStackDepth - 1
	}
	const initialTab = 256 // power of two; grows by doubling
	s := &StackCollector{
		walker: w,
		depth:  1 + maxDepth,
		gen:    1,
		tab:    make([]int32, initialTab),
		tabGen: make([]uint32, initialTab),
	}
	s.buf = make([]int64, s.depth)
	return s
}

// Attach gives the collector access to the machine whose frames it
// walks. With no walker attached, Record interns leaf-only stacks.
func (s *StackCollector) Attach(w FrameWalker) { s.walker = w }

// MaxDepth reports the walk bound: return addresses per sample beyond
// the leaf.
func (s *StackCollector) MaxDepth() int { return s.depth - 1 }

// Samples reports the whole-stack samples recorded since Reset.
func (s *StackCollector) Samples() int64 { return s.samples }

// Distinct reports the interned path count since Reset.
func (s *StackCollector) Distinct() int { return len(s.cells) }

// Record samples the call stack active at pc: it walks the attached
// machine's frames into the reused buffer and interns the sequence.
// pc must be non-negative (gmon stack records cannot carry negative
// PCs); the VM never produces one.
func (s *StackCollector) Record(pc int64) {
	buf := s.buf
	buf[0] = pc
	n := 0
	if s.walker != nil {
		n = s.walker.ReturnAddressesInto(buf[1:])
	}
	s.record(buf[: 1+n : 1+n])
}

// Reset clears all accumulated data in O(1): bumping the generation
// invalidates every hash slot at once, and the arena is truncated in
// place so its capacity survives for the next run.
func (s *StackCollector) Reset() {
	s.gen++
	if s.gen == 0 { // generation counter wrapped: tags are ambiguous, really clear them
		clear(s.tabGen)
		s.gen = 1
	}
	s.cells = s.cells[:0]
	s.pcs = s.pcs[:0]
	s.samples, s.inserts, s.probes = 0, 0, 0
}

// record interns one walked PC sequence: a repeat of a known path
// increments its cell in place; a new path appends its PCs to the
// shared arena and a cell to the chain. Steady state allocates nothing
// — growth only on new paths (amortized) and on table doubling.
func (s *StackCollector) record(pcs []int64) {
	s.samples++
	mask := len(s.tab) - 1
	slot := int(hashPCs(pcs)) & mask
	head := int32(-1)
	if s.tabGen[slot] == s.gen {
		head = s.tab[slot]
	}
	for i := head; i >= 0; i = s.cells[i].next {
		cell := &s.cells[i]
		if pcsEqual(s.pcs[cell.off:cell.off+cell.n], pcs) {
			cell.count++
			return
		}
		s.probes++
	}
	s.inserts++
	off := int32(len(s.pcs))
	s.pcs = append(s.pcs, pcs...)
	s.cells = append(s.cells, stackCell{off: off, n: int32(len(pcs)), count: 1, next: head})
	s.tab[slot] = int32(len(s.cells) - 1)
	s.tabGen[slot] = s.gen
	if len(s.cells) > len(s.tab)-len(s.tab)/4 {
		s.grow()
	}
}

// grow doubles the intern hash and re-chains every live cell. Cells
// and the PC arena do not move — only the chain heads rebuild.
func (s *StackCollector) grow() {
	n := len(s.tab) * 2
	tab := make([]int32, n)
	gen := make([]uint32, n)
	mask := n - 1
	for i := range s.cells {
		cell := &s.cells[i]
		slot := int(hashPCs(s.pcs[cell.off:cell.off+cell.n])) & mask
		if gen[slot] == s.gen {
			cell.next = tab[slot]
		} else {
			cell.next = -1
		}
		tab[slot] = int32(i)
		gen[slot] = s.gen
	}
	s.tab, s.tabGen = tab, gen
}

// Snapshot condenses the interned table into sorted gmon stack
// samples; nil when nothing was recorded. Two allocations regardless
// of path count: one backing array for every sequence (the arena keeps
// accumulating and Reset truncates it, so the snapshot cannot alias
// it) and the sample slice itself. The collector keeps accumulating.
func (s *StackCollector) Snapshot() []gmon.StackSample {
	if len(s.cells) == 0 {
		return nil
	}
	backing := make([]int64, len(s.pcs))
	copy(backing, s.pcs)
	out := make([]gmon.StackSample, len(s.cells))
	for i := range s.cells {
		cell := &s.cells[i]
		out[i] = gmon.StackSample{
			PCs:   backing[cell.off : cell.off+cell.n],
			Count: cell.count,
		}
	}
	gmon.SortStacks(out)
	return out
}

// hashPCs is FNV-1a over the sequence's words: cheap, and good enough
// that chains stay short when distinct call paths share a leaf.
func hashPCs(pcs []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, pc := range pcs {
		h ^= uint64(pc)
		h *= 1099511628211
	}
	return h
}

func pcsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}
