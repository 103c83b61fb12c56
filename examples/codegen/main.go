// Codegen: the paper's motivating use case (§1, §6) — "the purpose of
// the gprof profiling tool is to help the user evaluate alternative
// implementations of abstractions. We developed this tool in response to
// our efforts to improve a code generator we were writing."
//
// A toy code generator looks up operator descriptors in a symbol table.
// Version 1 implements the lookup abstraction with a linear search;
// version 2 with a binary search. The lookup abstraction spans several
// routines (compare, probe, lookup), so the flat prof-style view blurs
// it; the call graph profile attributes the whole cost to `lookup`,
// making the comparison obvious.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/symtab"
	"repro/internal/workloads"
)

const common = `
var table[256];
var nsyms;

func compare(a, b) {
	if (a < b) { return -1; }
	if (a > b) { return 1; }
	return 0;
}

func setup() {
	nsyms = 128;
	var i = 0;
	while (i < nsyms) {
		table[i] = i * 3 + 1;   // sorted keys
		i = i + 1;
	}
	return 0;
}

func emit(op) { return op & 255; }

func gen(key) {
	var desc = lookup(key);
	return emit(desc);
}

func main() {
	setup();
	var round = 0;
	var out = 0;
	while (round < 60) {
		var k = 0;
		while (k < nsyms) {
			out = (out + gen(table[k])) & 65535;
			k = k + 1;
		}
		round = round + 1;
	}
	return out & 255;
}
`

const linearLookup = `
func probe(key, i) { return compare(table[i], key); }

func lookup(key) {
	var i = 0;
	while (i < nsyms) {
		if (probe(key, i) == 0) { return table[i]; }
		i = i + 1;
	}
	return 0;
}
` + common

const binaryLookup = `
func probe(key, i) { return compare(table[i], key); }

func lookup(key) {
	var lo = 0;
	var hi = nsyms - 1;
	while (lo <= hi) {
		var mid = (lo + hi) / 2;
		var c = probe(key, mid);
		if (c == 0) { return table[mid]; }
		if (c < 0) { lo = mid + 1; }
		else { hi = mid - 1; }
	}
	return 0;
}
` + common

func profileVersion(name, src string) (float64, float64) {
	im, err := workloads.BuildSource(name, src, true)
	if err != nil {
		log.Fatal(err)
	}
	p, res, _, err := workloads.Run(im, workloads.RunConfig{TickCycles: 1000, MaxCycles: 1 << 32})
	if err != nil {
		log.Fatal(err)
	}
	result, err := core.Run(context.Background(), core.ImageSource{Image: im}, p, core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("=== %s: %d cycles ===\n\n", name, res.Cycles)
	fmt.Println("prof's flat view (the abstraction is smeared across routines):")
	if err := prof.Write(os.Stdout, symtab.New(im), p); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ngprof's view of the lookup abstraction:")
	result2, err := core.Run(context.Background(), core.ImageSource{Image: im}, p, core.Options{
		Report: report.Options{Focus: []string{"lookup"}, NoHeaders: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := result2.WriteCallGraph(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	lookup, ok := result.Model.Routine("lookup")
	if !ok {
		log.Fatal("no routine lookup in the profile")
	}
	return lookup.TotalTicks() / result.Model.TotalTicks, float64(res.Cycles)
}

func main() {
	linShare, linCycles := profileVersion("linear.tl", linearLookup)
	binShare, binCycles := profileVersion("binary.tl", binaryLookup)

	fmt.Println("=== comparison ===")
	fmt.Printf("lookup abstraction owns %.0f%% of the linear build, %.0f%% of the binary build\n",
		linShare*100, binShare*100)
	fmt.Printf("whole-program speedup from changing one abstraction: %.1fx\n",
		linCycles/binCycles)
}
