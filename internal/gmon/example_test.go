package gmon_test

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/gmon"
)

// Example shows the profile-data round trip and multi-run merging the
// post-processors rely on.
func Example() {
	run1 := &gmon.Profile{
		Hist: gmon.Histogram{Low: 0x1000, High: 0x1004, Step: 1, Counts: []uint32{3, 0, 5, 0}},
		Arcs: []gmon.Arc{{FromPC: 0x1000, SelfPC: 0x1002, Count: 7}},
		Hz:   60,
	}
	var file bytes.Buffer
	if err := gmon.WriteVersion(&file, run1, gmon.Version1); err != nil {
		log.Fatal(err)
	}
	run2, err := gmon.Open(&file)
	if err != nil {
		log.Fatal(err)
	}
	// Sum a second (identical) run into the first.
	if err := run1.Merge(run2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ticks %d, arc count %d, %.2f seconds\n",
		run1.Hist.TotalTicks(), run1.Arcs[0].Count, run1.TotalSeconds())
	// Output:
	// ticks 16, arc count 14, 0.27 seconds
}
