// Unfamiliar: the paper's §6 walkthrough — "a completely different use
// of the profiler is to analyze the control flow of an unfamiliar
// program." You need to change the output format of a program you did
// not write; you look at the profile entry for the WRITE routine, find
// its parents FORMAT1 and FORMAT2, and trace upward to CALC1/2/3 to
// decide which formatter to split.
//
// The program below has exactly the call structure of the paper's
// diagram:
//
//	CALC1   CALC2   CALC3
//	    \   /   \   /
//	   FORMAT1  FORMAT2
//	        \    /
//	        WRITE
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/workloads"
)

const program = `
var out;

func write(v) {
	var i = 0;
	while (i < 20) { out = (out * 17 + v) & 65535; i = i + 1; }
	return 0;
}

func format1(v) { return write(v * 2 + 1); }
func format2(v) { return write(v * 3 + 7); }

func calc1(n) {
	var i = 0;
	while (i < n) { format1(i); i = i + 1; }
	return 0;
}

func calc2(n) {
	var i = 0;
	while (i < n) { format1(i * 2); format2(i); i = i + 1; }
	return 0;
}

func calc3(n) {
	var i = 0;
	while (i < n) { format2(i + 5); i = i + 1; }
	return 0;
}

func main() {
	calc1(40);
	calc2(60);
	calc3(80);
	return out & 255;
}
`

func main() {
	im, err := workloads.BuildSource("unfamiliar.tl", program, true)
	if err != nil {
		log.Fatal(err)
	}
	p, _, _, err := workloads.Run(im, workloads.RunConfig{TickCycles: 500, MaxCycles: 1 << 32})
	if err != nil {
		log.Fatal(err)
	}

	// Step 1 (paper): "Initially you look through the gprof output for
	// the system call WRITE" — focus on write and its parents.
	fmt.Println("step 1: the entry for write — its parents are the formatters")
	res, err := core.Run(context.Background(), core.ImageSource{Image: im}, p, core.Options{
		Report: report.Options{Focus: []string{"write"}, NoHeaders: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := res.WriteCallGraph(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Step 2: "look at the profile entry for each of the parents of
	// WRITE" — format2's parents are calc2 and calc3.
	fmt.Println("\nstep 2: the entry for format2 — calc2 and calc3 both call it")
	res2, err := core.Run(context.Background(), core.ImageSource{Image: im}, p, core.Options{
		Report: report.Options{Focus: []string{"format2"}, NoHeaders: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := res2.WriteCallGraph(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Step 3 (paper): to change calc2's output but not calc3's, format2
	// must be split, "retargeting just the call by CALC2". The static
	// call graph confirms every potential caller even in runs that do
	// not exercise the whole program.
	fmt.Println("\nstep 3: the arc counts above show which calls to retarget:")
	m := res2.Model
	f2, _ := m.RoutinePos("format2")
	for _, k := range m.Links().In(int32(f2)) {
		if a := &m.Arcs[k]; !a.Spontaneous() {
			fmt.Printf("  %s calls format2 %d time(s)\n", m.Routines[a.From].Name, a.Count)
		}
	}
	fmt.Println("splitting format2 and retargeting calc2's call changes only calc2's output.")
}
