// Command profdiff compares two execution profiles routine by routine
// and reports the per-routine self-time, total-time, and call-count
// deltas, sorted by regression (the biggest slowdowns first). It
// answers the question the listings of a single run cannot: did my
// change make it faster?
//
// Usage:
//
//	profdiff [flags] old new
//
// Each operand is either a saved JSON profile (gprof -json,
// docs/FORMATS.md) or profile data (gmon.out, raw or gzip-compressed,
// either format version). JSON profiles are
// self-contained; profile data needs the executable it was gathered
// against, supplied with -exe (same image for both runs) or -exe1/-exe2
// (the binary changed between runs). The two forms mix freely: a saved
// JSON baseline can be compared against a fresh gmon.out.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"

	"repro/internal/core"
	"repro/internal/gmon"
	"repro/internal/model"
	"repro/internal/object"
)

func main() {
	var (
		exe  = flag.String("exe", "", "executable for both profile data operands")
		exe1 = flag.String("exe1", "", "executable for the old profile data (overrides -exe)")
		exe2 = flag.String("exe2", "", "executable for the new profile data (overrides -exe)")
		top  = flag.Int("top", 0, "show only the first N changed routines (0 = all)")
		jobs = flag.Int("jobs", runtime.GOMAXPROCS(0),
			"worker-pool width when analyzing raw profile data (1 = serial)")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: profdiff [flags] old new")
		os.Exit(2)
	}
	oldName, newName := flag.Arg(0), flag.Arg(1)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	oldProf, err := load(ctx, oldName, pick(*exe1, *exe), *jobs)
	if err != nil {
		fatal(err)
	}
	newProf, err := load(ctx, newName, pick(*exe2, *exe), *jobs)
	if err != nil {
		fatal(err)
	}

	deltas := model.Diff(oldProf, newProf)
	// Flush explicitly and check the error: a deferred Flush would drop
	// a short write (full disk, closed pipe) on the floor.
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "profile diff: %s (%.2fs) -> %s (%.2fs)\n\n",
		oldName, oldProf.TotalSeconds, newName, newProf.TotalSeconds)
	fmt.Fprintf(w, "      Dtotal       Dself      Dcalls   old total   new total  name\n")
	shown, changed := 0, 0
	for i := range deltas {
		d := &deltas[i]
		if !d.Changed() {
			continue
		}
		changed++
		if *top > 0 && shown >= *top {
			continue
		}
		shown++
		fmt.Fprintf(w, "%+12.2f%+12.2f%+12d%12.2f%12.2f  %s%s\n",
			d.DTotal(), d.DSelf(), d.DCalls(), d.OldTotal, d.NewTotal,
			d.Name, presence(d))
	}
	if changed == 0 {
		fmt.Fprintln(w, "no per-routine changes")
	} else if shown < changed {
		fmt.Fprintf(w, "... %d more changed routine(s); raise -top to see them\n", changed-shown)
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
}

// presence tags routines present in only one of the profiles.
func presence(d *model.Delta) string {
	switch {
	case d.InOld && !d.InNew:
		return " (removed)"
	case !d.InOld && d.InNew:
		return " (added)"
	}
	return ""
}

func pick(specific, general string) string {
	if specific != "" {
		return specific
	}
	return general
}

// load reads one operand as a profile model: a JSON profile is decoded
// directly; profile data (sniffed by gmon.Sniff, so raw or
// gzip-compressed files in either format version) is analyzed against
// its executable through the regular pipeline.
func load(ctx context.Context, name, exe string, jobs int) (*model.Profile, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	head := make([]byte, 4)
	n, _ := io.ReadFull(f, head)
	f.Close()
	if !gmon.Sniff(head[:n]) {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		m, err := model.Decode(bufio.NewReader(f))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return m, nil
	}
	if exe == "" {
		return nil, fmt.Errorf("%s is profile data; supply its executable with -exe (or -exe1/-exe2)", name)
	}
	im, err := object.ReadImageFile(exe)
	if err != nil {
		return nil, err
	}
	p, err := gmon.ReadFiles(ctx, []string{name}, jobs)
	if err != nil {
		return nil, err
	}
	res, err := core.Run(ctx, core.ImageSource{Image: im}, p, core.Options{Jobs: jobs})
	if err != nil {
		return nil, err
	}
	return res.Model, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
