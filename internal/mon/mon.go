// Package mon is the monitoring runtime: the production implementation of
// the VM's Monitor interface, corresponding to the paper's §3.
//
// It maintains two data structures during execution:
//
//   - The arc table (§3.1). Each MCOUNT executed in a routine prologue
//     records the call-graph arc (call site → callee) and increments its
//     traversal count. Following the paper, the table is "accessed through
//     a hash table" whose primary key is the call site: because the text
//     segment is addressable one-to-one, "our hash function is trivial to
//     calculate and collisions occur only for call sites which call
//     multiple destinations (e.g. functional parameters)". A chain per
//     call site holds the (callee, count) pairs.
//
//   - The program-counter histogram (§3.2). Every clock tick delivered by
//     the VM bumps the bucket covering the sampled PC. Granularity is
//     configurable; at Granularity 1 "program counter values map
//     one-to-one onto the histogram".
//
// The collector also implements the programmer's interface the
// retrospective describes for profiling the kernel: Enable, Disable,
// Reset, and Snapshot ("extract the profiling data") work while the
// program keeps running.
//
// Mcount returns the simulated cycles the monitoring routine consumed
// beyond the MCOUNT instruction's base cost, so profiling overhead is
// charged to the program and the paper's 5-30% overhead claim (§7) is a
// measurable quantity.
//
// Because Mcount sits on the hottest path of every profiled run, the
// collector is engineered the way the paper's §3 demands ("as fast as
// possible"): arc cells live in one arena slice chained by index (zero
// steady-state allocations), a one-entry last-arc cache short-circuits
// the hash probe for back-to-back traversals of the same arc
// (Stats.CacheHits), and Reset retires all data in O(1) by bumping a
// generation counter instead of sweeping the table.
package mon

import (
	"fmt"

	"repro/internal/gmon"
	"repro/internal/isa"
	"repro/internal/object"
)

// Strategy selects the primary key of the arc hash table.
type Strategy int

const (
	// SiteKeyed is the paper's choice: the call site is the primary key
	// and the callee the secondary key, so the common one-callee-per-site
	// case costs a single probe.
	SiteKeyed Strategy = iota
	// CalleeKeyed is the alternative the paper rejects: the callee is
	// the primary key and the call site the secondary, which associates
	// callers with callees "at the expense of longer lookups". Provided
	// for the ablation benchmark (E9).
	CalleeKeyed
)

func (s Strategy) String() string {
	switch s {
	case SiteKeyed:
		return "site-keyed"
	case CalleeKeyed:
		return "callee-keyed"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// DefaultStackDepth is the default per-sample frame-walk bound when
// stack collection is enabled: the leaf PC plus up to this many return
// addresses. It stays under the gmon format's MaxStackDepth.
const DefaultStackDepth = 256

// FrameWalker is the view of the machine the stack collector needs: a
// zero-allocation walk of the active frames' return addresses,
// innermost first. vm.Machine implements it.
type FrameWalker interface {
	ReturnAddressesInto(dst []int64) int
}

// Config controls a Collector.
type Config struct {
	// Granularity is the number of text words per histogram bucket.
	// 0 or 1 gives the one-to-one mapping.
	Granularity int64
	// Hz is the clock-tick rate recorded in emitted profiles; 0 means
	// gmon.DefaultHz. It is metadata only — the VM decides how often
	// ticks actually fire.
	Hz int64
	// Strategy selects the arc-table keying; the zero value is the
	// paper's site-keyed table.
	Strategy Strategy
	// StartDisabled creates the collector with recording off; the
	// program (or host) must call Enable / SysMonStart.
	StartDisabled bool
	// Stacks enables whole-call-stack collection at each clock tick —
	// the retrospective's fix for §3.2's equal-cost-per-call
	// assumption. A FrameWalker must also be attached (AttachWalker);
	// snapshots then carry an interned stack table (gmon v3).
	Stacks bool
	// MaxStackDepth bounds the frames recorded per stack sample (leaf
	// plus walked return addresses); 0 means DefaultStackDepth. Values
	// are clamped so a sample always fits gmon.MaxStackDepth.
	MaxStackDepth int
}

// Stats reports the collector's internal behaviour, for tests and the
// hash-strategy ablation.
type Stats struct {
	McountCalls int64 // MCOUNT executions observed (recording on)
	CacheHits   int64 // calls satisfied by the one-entry last-arc cache
	Probes      int64 // secondary-key chain probes beyond the first cell
	Inserts     int64 // new arc cells created
	Spontaneous int64 // arcs recorded with an unidentifiable caller
	Ticks       int64 // histogram samples recorded
	LostTicks   int64 // samples outside the text range (none expected)

	StackSamples int64 // whole-stack samples recorded (stacks enabled)
	StackInserts int64 // distinct PC sequences interned
	StackProbes  int64 // intern-chain probes beyond the first cell
}

// arcCell is one arc-table entry. Cells live in a single arena slice and
// chain by arena index rather than pointer, so steady-state Mcount does
// no per-call allocation and chain walks touch contiguous memory.
type arcCell struct {
	prim  int64 // primary key: call-site pc (SiteKeyed) or callee pc (CalleeKeyed)
	key   int64 // secondary key: the other address of the pair
	count int64
	next  int32 // arena index of the next cell in this slot's chain; -1 ends it
}

// Collector gathers profile data for one text range. It is not safe for
// concurrent use; the simulated machine is single-threaded.
//
// The arc table is the paper's one-slot-per-text-word primary hash, but
// the chains are arena-backed: table[slot] holds an index into arena,
// and a slot's entry is live only while slotGen[slot] equals gen — so
// Reset is O(1) over the table (bump gen, truncate the arena) instead of
// O(text length). The histogram uses the same generation trick. In
// front of the hash sits the classic one-entry last-arc cache (real
// mcount's "check if this is the same arc as last time"), counted in
// Stats.CacheHits for the E9 ablation.
type Collector struct {
	cfg      Config
	textBase int64
	textLen  int64

	enabled bool
	table   []int32   // primary hash: slot -> arena head index (see slotGen)
	slotGen []uint32  // table[slot] is live iff slotGen[slot] == gen
	arena   []arcCell // all live arc cells, in insertion order
	gen     uint32
	spont   map[int64]int64 // callee pc -> count for spontaneous arcs
	hist    []uint32        // hist[b] is live iff histGen[b] == gen
	histGen []uint32
	stats   Stats

	// One-entry cache: the last (selfpc, frompc) pair and its cell.
	lastSelf int64
	lastFrom int64
	lastIdx  int32 // arena index; -1 when invalid

	// Stack interning (Config.Stacks): a StackCollector, nil when
	// stacks are off.
	stacks *StackCollector
}

// New creates a collector sized for the image's text segment.
func New(im *object.Image, cfg Config) *Collector {
	if cfg.Granularity <= 0 {
		cfg.Granularity = 1
	}
	if cfg.Hz <= 0 {
		cfg.Hz = gmon.DefaultHz
	}
	textLen := int64(len(im.Text))
	nbkt := (textLen + cfg.Granularity - 1) / cfg.Granularity
	c := &Collector{
		cfg:      cfg,
		textBase: im.TextBase,
		textLen:  textLen,
		enabled:  !cfg.StartDisabled,
		table:    make([]int32, textLen),
		slotGen:  make([]uint32, textLen),
		gen:      1,
		spont:    make(map[int64]int64),
		hist:     make([]uint32, nbkt),
		histGen:  make([]uint32, nbkt),
		lastIdx:  -1,
	}
	if cfg.Stacks {
		c.stacks = NewStackCollector(nil, cfg.MaxStackDepth)
	}
	return c
}

// AttachWalker gives the collector access to the machine whose frames
// it walks at each tick. Stack collection happens only when both
// Config.Stacks is set and a walker is attached, so an unattached
// stacks-enabled collector degrades to plain PC sampling.
func (c *Collector) AttachWalker(w FrameWalker) {
	if c.stacks != nil {
		c.stacks.Attach(w)
	}
}

// Enabled reports whether recording is on.
func (c *Collector) Enabled() bool { return c.enabled }

// Enable turns recording on (the paper's moncontrol-style interface).
func (c *Collector) Enable() { c.enabled = true }

// Disable turns recording off. The program keeps running at (nearly)
// full speed; MCOUNT becomes a cheap no-op.
func (c *Collector) Disable() { c.enabled = false }

// Reset clears all accumulated data without changing the enabled state.
// It is O(1) in the size of the arc table and histogram: bumping the
// generation invalidates every slot and bucket at once, and the arena is
// truncated in place so its capacity survives for the next run.
func (c *Collector) Reset() {
	c.gen++
	if c.gen == 0 { // generation counter wrapped: tags are ambiguous, really clear them
		clear(c.slotGen)
		clear(c.histGen)
		c.gen = 1
	}
	c.arena = c.arena[:0]
	if c.stacks != nil {
		c.stacks.Reset()
	}
	clear(c.spont)
	c.stats = Stats{}
	c.lastIdx = -1
}

// Control implements the VM's monitor-control syscalls.
func (c *Collector) Control(op int) {
	switch op {
	case isa.SysMonStart:
		c.Enable()
	case isa.SysMonStop:
		c.Disable()
	case isa.SysMonReset:
		c.Reset()
	}
}

// Stats returns a copy of the collector's counters.
func (c *Collector) Stats() Stats {
	st := c.stats
	if c.stacks != nil {
		st.StackSamples = c.stacks.samples
		st.StackInserts = c.stacks.inserts
		st.StackProbes = c.stacks.probes
	}
	return st
}

// TableStats describes the arc table's current shape: the arena the
// cells live in and the collision-chain profile of the primary hash.
// The paper's claim that "collisions occur only for call sites which
// call multiple destinations" predicts MaxChain stays tiny for
// site-keyed tables; vmrun -stats and the obs counters surface the
// measurement.
type TableStats struct {
	ArenaCells   int // live arc cells
	ArenaCap     int // arena capacity (allocation high-water mark)
	Chains       int // occupied primary-hash slots
	MaxChain     int // longest collision chain
	SpontEntries int // distinct spontaneous callees
}

// TableStats walks the live arc table and reports its shape. Cost is
// O(text length + cells); call it at run end, not per event.
func (c *Collector) TableStats() TableStats {
	ts := TableStats{
		ArenaCells:   len(c.arena),
		ArenaCap:     cap(c.arena),
		SpontEntries: len(c.spont),
	}
	for slot := range c.table {
		if c.slotGen[slot] != c.gen {
			continue
		}
		n := 0
		for i := c.table[slot]; i >= 0; i = c.arena[i].next {
			n++
		}
		if n == 0 {
			continue
		}
		ts.Chains++
		if n > ts.MaxChain {
			ts.MaxChain = n
		}
	}
	return ts
}

// Mcount records the arc (frompc → selfpc) and returns the extra cycles
// the monitoring routine consumed. frompc is the call-site address or a
// negative value when the caller is unidentifiable (spontaneous).
//
// The steady state allocates nothing: a repeat of the previous arc hits
// the one-entry cache, any other known arc increments its arena cell in
// place, and only a never-seen arc appends to the arena (amortized by
// the slice's growth policy, and sized from the previous run after a
// Reset).
func (c *Collector) Mcount(selfpc, frompc int64) int64 {
	if !c.enabled {
		return 0
	}
	c.stats.McountCalls++
	if frompc < 0 {
		// Spontaneous: the apparent source "is not a call site at all".
		c.stats.Spontaneous++
		c.spont[selfpc]++
		return isa.McountProbeCost
	}
	// The last-arc cache: loops re-traverse the same arc back to back,
	// so checking the previous (selfpc, frompc) pair first skips the
	// hash probe entirely on the hottest path. Cached hits cost no
	// extra cycles, like a first-cell hash hit.
	if frompc == c.lastFrom && selfpc == c.lastSelf && c.lastIdx >= 0 {
		c.stats.CacheHits++
		c.arena[c.lastIdx].count++
		return 0
	}
	var primary, secondary int64
	switch c.cfg.Strategy {
	case CalleeKeyed:
		primary, secondary = selfpc, frompc
	default:
		primary, secondary = frompc, selfpc
	}
	slot := primary - c.textBase
	if slot < 0 || slot >= c.textLen {
		// A caller outside text should have been reported spontaneous;
		// tolerate it the same way rather than corrupting the table.
		c.stats.Spontaneous++
		c.spont[selfpc]++
		return isa.McountProbeCost
	}
	head := int32(-1)
	if c.slotGen[slot] == c.gen {
		head = c.table[slot]
	}
	var extra int64
	for i := head; i >= 0; i = c.arena[i].next {
		if c.arena[i].key == secondary {
			c.arena[i].count++
			c.lastSelf, c.lastFrom, c.lastIdx = selfpc, frompc, i
			return extra
		}
		c.stats.Probes++
		extra += isa.McountProbeCost
	}
	c.stats.Inserts++
	idx := int32(len(c.arena))
	c.arena = append(c.arena, arcCell{prim: primary, key: secondary, count: 1, next: head})
	c.table[slot] = idx
	c.slotGen[slot] = c.gen
	c.lastSelf, c.lastFrom, c.lastIdx = selfpc, frompc, idx
	return extra + isa.McountInsertCost
}

// Tick records one program-counter sample — and, when stack collection
// is on, the complete call stack active at the tick.
func (c *Collector) Tick(pc int64) {
	if !c.enabled {
		return
	}
	// Stacks record before the text-range check: a skid sample whose
	// leaf lies outside text still carries usable caller frames, and
	// the model counts such a walk as truncated. Raw PCs only — symbol
	// resolution happens at model build, so stacks merge across runs.
	if c.stacks != nil && c.stacks.walker != nil && pc >= 0 {
		c.stacks.Record(pc)
	}
	idx := pc - c.textBase
	if idx < 0 || idx >= c.textLen {
		c.stats.LostTicks++
		return
	}
	c.stats.Ticks++
	b := idx / c.cfg.Granularity
	if c.histGen[b] != c.gen { // first sample in this bucket since Reset
		c.histGen[b] = c.gen
		c.hist[b] = 1
		return
	}
	c.hist[b]++
}

// Snapshot condenses the current data into a profile, the operation the
// program performs as it exits — or that the programmer's interface
// performs on a live program. The collector keeps accumulating.
//
// The arc slice is presized from Stats.Inserts plus the spontaneous
// set, and the histogram is copied in one pass, so a snapshot performs
// a small constant number of allocations regardless of arc count.
func (c *Collector) Snapshot() *gmon.Profile {
	counts := make([]uint32, len(c.hist))
	for b, g := range c.histGen {
		if g == c.gen {
			counts[b] = c.hist[b]
		}
	}
	p := &gmon.Profile{
		Hist: gmon.Histogram{
			Low:    c.textBase,
			High:   c.textBase + c.textLen,
			Step:   c.cfg.Granularity,
			Counts: counts,
		},
		Hz:   c.cfg.Hz,
		Arcs: make([]gmon.Arc, 0, len(c.arena)+len(c.spont)),
	}
	for i := range c.arena {
		cell := &c.arena[i]
		a := gmon.Arc{Count: cell.count}
		switch c.cfg.Strategy {
		case CalleeKeyed:
			a.SelfPC, a.FromPC = cell.prim, cell.key
		default:
			a.FromPC, a.SelfPC = cell.prim, cell.key
		}
		p.Arcs = append(p.Arcs, a)
	}
	for selfpc, count := range c.spont {
		p.Arcs = append(p.Arcs, gmon.Arc{FromPC: gmon.SpontaneousPC, SelfPC: selfpc, Count: count})
	}
	p.SortArcs()
	if c.stacks != nil {
		p.Stacks = c.stacks.Snapshot()
	}
	return p
}
