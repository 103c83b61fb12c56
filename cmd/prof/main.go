// Command prof is the baseline flat profiler gprof improved on (the
// UNIX prof(1) of the paper's introduction): per-routine time, call
// counts, and average ms/call — no call graph, no propagation.
//
// Usage:
//
//	prof [a.out [gmon.out ...]]
package main

import (
	"bufio"
	"context"
	"fmt"
	"os"

	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/prof"
	"repro/internal/symtab"
)

func main() {
	exe := "a.out"
	profiles := []string{"gmon.out"}
	if len(os.Args) > 1 {
		exe = os.Args[1]
		if len(os.Args) > 2 {
			profiles = os.Args[2:]
		}
	}
	im, err := object.ReadImageFile(exe)
	if err != nil {
		fatal(err)
	}
	p, err := gmon.ReadFiles(context.Background(), profiles, 1)
	if err != nil {
		fatal(err)
	}
	// Flush explicitly and check the error: a deferred Flush would drop
	// a short write (full disk, closed pipe) on the floor.
	w := bufio.NewWriter(os.Stdout)
	if err := prof.Render(w, prof.Model(symtab.New(im), p)); err != nil {
		fatal(err)
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
