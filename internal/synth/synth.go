// Package synth generates deterministic synthetic call-graph workloads:
// a routine table and a matching gmon profile whose shape stresses the
// analysis pipeline the way production-scale programs do — layered
// call DAGs, deep recursion chains, dense multi-member cycles, and
// function-pointer-style fan-out hubs — at node counts up to 10^6.
//
// A generated Workload is indistinguishable from a real one to the
// pipeline: the symbol table loads through symtab.FromSyms (or a full
// object.Image via Workload.Image), the profile encodes to a valid
// gmon.out in either format version, and the whole analysis —
// callgraph.BuildCtx → scc.Analyze → cyclebreak → propagate.RunCtx →
// model.Build — runs over it unchanged. Generation is a pure function
// of Config: the same Config yields byte-identical symbols and profile
// bytes on every run and platform (the PRNG is an embedded splitmix64,
// no math/rand, no time).
//
// The histogram is emitted routine-aligned (Step = RoutineWords, one
// bucket per routine), so tick attribution never splits a bucket and
// the full analysis is exact — which is what lets tests demand
// byte-identical model JSON across -jobs widths.
package synth

import (
	"fmt"

	"repro/internal/gmon"
	"repro/internal/isa"
	"repro/internal/object"
	"repro/internal/symtab"
)

// Config parameterizes a synthetic workload. Zero values select
// scale-appropriate defaults (see Normalize); Nodes and Seed are the
// two knobs most callers set.
type Config struct {
	Nodes int    // total routine count (>= 1)
	Seed  uint64 // generator seed; (Config) ⇒ output, bit for bit

	Layers       int   // layered-DAG depth
	Chains       int   // deep linear call chains (recursion-like towers)
	ChainDepth   int   // routines per chain
	CycleCount   int   // dense multi-member cycles
	CycleSize    int   // members per cycle
	Hubs         int   // function-pointer-style fan-out callers
	FanOut       int   // callees per hub, all from one call site
	ExtraArcs    int   // random forward cross arcs on top of the skeleton
	RoutineWords int64 // text words per routine (and histogram step)
	Hz           int64 // profile clock rate
}

// TextBase is where synthetic text begins; routine i occupies
// [TextBase+i*RoutineWords, TextBase+(i+1)*RoutineWords).
const TextBase = 0x1000

// Normalize fills defaulted fields and clamps the shape so every region
// fits inside Nodes. It is idempotent; Generate applies it internally.
func (c Config) Normalize() Config {
	if c.Nodes < 1 {
		c.Nodes = 1
	}
	if c.RoutineWords <= 0 {
		c.RoutineWords = 8
	}
	if c.Hz <= 0 {
		c.Hz = 100
	}
	n := c.Nodes
	if c.Layers <= 0 {
		c.Layers = 12
	}
	if c.Hubs <= 0 {
		c.Hubs = n / 1000
	}
	if c.FanOut <= 0 {
		c.FanOut = min(128, max(2, n/8))
	}
	if c.Chains <= 0 {
		c.Chains = 1
	}
	if c.ChainDepth <= 0 {
		c.ChainDepth = min(max(n/10, 2), 10000)
	}
	if c.CycleCount <= 0 {
		// At least a couple of cycles on all but the tiniest graphs, so
		// every tier exercises collapsing.
		c.CycleCount = max(n/2000, min(2, n/16))
	}
	if c.CycleSize <= 0 {
		c.CycleSize = 8
	}
	if c.ExtraArcs <= 0 {
		c.ExtraArcs = n / 2
	}

	// Shrink regions until root + hubs + chains + cycles + sinks fit,
	// leaving at least a quarter of the nodes for the layered DAG.
	budget := n - 1 // root
	c.Hubs = min(c.Hubs, budget/8)
	budget -= c.Hubs
	sinks := max(min(budget, 1), n/20)
	budget -= sinks
	for c.Chains*c.ChainDepth > budget/3 && c.ChainDepth > 1 {
		c.ChainDepth /= 2
	}
	if c.Chains*c.ChainDepth > budget/3 {
		c.Chains = 0
	}
	budget -= c.Chains * c.ChainDepth
	if c.CycleSize < 2 {
		c.CycleSize = 2
	}
	if c.CycleCount*c.CycleSize > budget/2 {
		c.CycleCount = budget / 2 / c.CycleSize
	}
	budget -= c.CycleCount * c.CycleSize
	if c.Layers > budget {
		c.Layers = max(budget, 1)
	}
	return c
}

// Workload is one generated symbol table + profile pair.
type Workload struct {
	Cfg  Config // the normalized configuration that produced it
	Syms []object.Sym
	Prof *gmon.Profile
}

// rng is splitmix64: tiny, seedable, and stable across platforms.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// intn returns a value in [0, n). n must be positive.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Generate builds the workload for cfg. All structural arcs run from a
// lower routine index to a higher one except arcs inside a designated
// cycle group, so the graph's strongly-connected components are exactly
// the generated cycles — the analysis can be checked against the shape.
func Generate(cfg Config) *Workload {
	c := cfg.Normalize()
	n := c.Nodes
	rw := c.RoutineWords
	r := rng(c.Seed)

	// Region layout, ascending: root | hubs | DAG | chains | cycles | sinks.
	hubLo := 1
	dagLo := hubLo + c.Hubs
	chainLo := n - 1 // placeholder; computed from the tail backwards
	sinks := max(min(n-1, 1), n/20)
	sinkLo := n - sinks
	cycLo := sinkLo - c.CycleCount*c.CycleSize
	chainLo = cycLo - c.Chains*c.ChainDepth
	nDag := chainLo - dagLo

	// Symbols: syn_%06x at index order (address order), root named main.
	syms := make([]object.Sym, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("syn_%06x", i)
		if i == 0 {
			name = "main"
		}
		syms[i] = object.Sym{Name: name, Addr: TextBase + int64(i)*rw, Size: rw}
	}
	addr := func(i int) int64 { return TextBase + int64(i)*rw }

	p := &gmon.Profile{Hz: c.Hz}
	p.Hist = gmon.Histogram{
		Low:  TextBase,
		High: TextBase + int64(n)*rw,
		Step: rw, // one bucket per routine: attribution is exact
	}
	p.Hist.Counts = make([]uint32, n)
	for i := range p.Hist.Counts {
		if v := r.next(); v%4 != 0 { // ~a quarter of routines sample no ticks
			p.Hist.Counts[i] = uint32(v>>32) % 16
		}
	}

	p.Arcs = make([]gmon.Arc, 0, 3*n+c.Hubs*c.FanOut+16)

	// arc appends a record caller→callee from the caller's site'th call
	// site. Sites wrap within the routine body, so two distinct sites
	// exist whenever rw > 2; the same (caller, callee) pair recorded
	// from two sites exercises the builder's arc merging.
	arc := func(from, to, site int, count int64) {
		fromPC := addr(from) + 1 + int64(site)%max64(rw-1, 1)
		p.Arcs = append(p.Arcs, gmon.Arc{FromPC: fromPC, SelfPC: addr(to), Count: count})
	}
	count := func() int64 { return 1 << (r.next() % 7) } // 1..64, dyadic

	// Root is called once, spontaneously.
	p.Arcs = append(p.Arcs, gmon.Arc{FromPC: gmon.SpontaneousPC, SelfPC: addr(0), Count: 1})

	// Hubs: function-pointer fan-out — one call site reaching many
	// callees spread over everything deeper.
	for h := 0; h < c.Hubs; h++ {
		hub := hubLo + h
		arc(0, hub, h, count())
		span := n - dagLo
		for k := 0; k < c.FanOut; k++ {
			arc(hub, dagLo+r.intn(span), 0, count())
		}
	}

	// Layered DAG: contiguous layer blocks, every node calling 2–3
	// routines in the next layer (the last layer calls sinks).
	if nDag > 0 {
		layers := min(c.Layers, nDag)
		layerOf := func(i int) (lo, hi int) { // nodes of layer i
			lo = dagLo + i*nDag/layers
			hi = dagLo + (i+1)*nDag/layers
			return lo, hi
		}
		lo0, hi0 := layerOf(0)
		for k := lo0; k < hi0 && k < lo0+8; k++ {
			arc(0, k, k-lo0, count()) // root seeds the first layer
		}
		for l := 0; l < layers; l++ {
			lo, hi := layerOf(l)
			nlo, nhi := sinkLo, n // the last layer drains into sinks
			if l+1 < layers {
				nlo, nhi = layerOf(l + 1)
			}
			width := nhi - nlo
			for i := lo; i < hi; i++ {
				outs := 2 + r.intn(2)
				for k := 0; k < outs; k++ {
					arc(i, nlo+r.intn(width), k, count())
				}
				if r.next()%16 == 0 {
					arc(i, i, 0, count()) // self-recursion, excluded from propagation
				}
			}
		}
	}

	// Deep chains: linear towers i→i+1 that force the SCC traversal and
	// the propagation schedule to their full depth; every 16th member
	// also self-recurses, and tails drain into sinks.
	for ch := 0; ch < c.Chains; ch++ {
		head := chainLo + ch*c.ChainDepth
		arc(0, head, ch, count())
		for i := 0; i < c.ChainDepth-1; i++ {
			arc(head+i, head+i+1, 0, count())
			if i%16 == 15 {
				arc(head+i, head+i, 0, 1+int64(r.next()%8))
			}
		}
		arc(head+c.ChainDepth-1, sinkLo+r.intn(sinks), 0, count())
	}

	// Dense cycles: a ring plus skip-chords and a reverse arc per group,
	// entered from the root and exited into sinks. Every arc stays
	// inside its group except the designated entry and exits, so each
	// group is one strongly-connected component, exactly.
	for cy := 0; cy < c.CycleCount; cy++ {
		base := cycLo + cy*c.CycleSize
		sz := c.CycleSize
		arc(0, base, cy, count()) // entry
		for i := 0; i < sz; i++ {
			arc(base+i, base+(i+1)%sz, 0, count()) // ring
			if sz > 3 && i%2 == 0 {
				arc(base+i, base+(i+2)%sz, 1, count()) // chord
			}
		}
		if sz > 2 {
			arc(base+sz-1, base+1, 2, count()) // reverse chord
		}
		arc(base+r.intn(sz), sinkLo+r.intn(sinks), 3, count()) // exit
	}

	// Extra forward arcs: random ascending (i, j) pairs — never a new
	// cycle — from any non-sink, occasionally recorded from a second
	// call site to exercise multi-site merging.
	for k := 0; k < c.ExtraArcs && n > 2; k++ {
		i := 1 + r.intn(sinkLo-1)
		j := 1 + r.intn(n-1)
		if i >= j {
			continue
		}
		arc(i, j, r.intn(4), count())
		if r.next()%8 == 0 {
			arc(i, j, 4+r.intn(3), count())
		}
	}

	return &Workload{Cfg: c, Syms: syms, Prof: p}
}

// Table returns the workload's symbol table.
func (w *Workload) Table() *symtab.Table { return symtab.FromSyms(w.Syms) }

// Image materializes the workload as a linked executable image (zeroed
// text under the routine table), so the unmodified gprof CLI can
// analyze a synthetic a.out + gmon.out pair end to end. The text costs
// Nodes×RoutineWords words; intended for the 10^5-and-below tiers.
func (w *Workload) Image() *object.Image {
	rw := w.Cfg.RoutineWords
	size := int64(w.Cfg.Nodes) * rw
	return &object.Image{
		Text:     make([]isa.Word, size),
		TextBase: TextBase,
		Entry:    TextBase,
		Funcs:    w.Syms,
		DataBase: TextBase + size,
		StackTop: TextBase + size + 1<<16,
	}
}

// Tier is the canonical configuration for one benchmark scale tier:
// defaults shaped by Normalize, seeded so every tier differs.
func Tier(nodes int, seed uint64) Config {
	return Config{Nodes: nodes, Seed: seed ^ uint64(nodes)*0x9e3779b97f4a7c15}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
