package core_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/mon"
	"repro/internal/object"
	"repro/internal/vm"
)

// Example runs the complete gprof workflow in-process: compile a
// program with profiling prologues, execute it under the monitoring
// runtime, post-process, and inspect the result.
func Example() {
	src := `
func work(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) { s = s + i*i; }
	return s;
}
func main() {
	var total = 0;
	for (var r = 0; r < 25; r = r + 1) { total = (total + work(400)) & 65535; }
	return total;
}`
	obj, err := lang.Compile("example.tl", src, lang.Options{Profile: true})
	if err != nil {
		log.Fatal(err)
	}
	im, err := object.Link([]*object.Object{obj}, object.LinkConfig{})
	if err != nil {
		log.Fatal(err)
	}
	collector := mon.New(im, mon.Config{})
	if _, err := vm.New(im, vm.Config{Monitor: collector, TickCycles: 500}).Run(); err != nil {
		log.Fatal(err)
	}
	res, err := core.Run(context.Background(), core.ImageSource{Image: im}, collector.Snapshot(), core.Options{Static: true})
	if err != nil {
		log.Fatal(err)
	}
	work, _ := res.Model.Routine("work")
	main, _ := res.Model.Routine("main")
	fmt.Printf("work called %d times\n", work.Calls)
	fmt.Printf("main inherits work's time: %v\n", main.ChildTicks >= work.SelfTicks)
	var out strings.Builder
	if err := res.WriteFlat(&out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flat profile lists work first: %v\n",
		strings.Index(out.String(), "work") < strings.Index(out.String(), "main"))
	// Output:
	// work called 25 times
	// main inherits work's time: true
	// flat profile lists work first: true
}
