// Package repro is a complete reproduction of "gprof: a Call Graph
// Execution Profiler" (Graham, Kessler, McKusick, SIGPLAN '82) and its
// 2003 retrospective, built from scratch in stdlib-only Go.
//
// The profiler and every substrate it needs live under internal/: a
// small machine (isa, vm), an assembler and compiler that plant the
// monitoring-routine prologues (asm, lang), object files and a linker
// with a static-call-graph scanner (object), the monitoring runtime and
// profile file format (mon, gmon), and the post-processing pipeline —
// symbol attribution, call-graph assembly, Tarjan SCC with topological
// numbering, time propagation, cycle breaking, and the classic two-part
// report (symtab, callgraph, scc, propagate, cyclebreak, report, core).
// The prof(1) baseline (prof), a Go-native self-profiling collector
// (profgo), and the whole-call-stack sampling that superseded gprof
// (mon's stack collector and the model's stacks view) complete the
// paper's before-and-after story.
//
// Command-line tools are under cmd/ (vmrun, gprof, prof, disasm,
// figures, and more), runnable examples under examples/, and
// the reproduced figures and claims are indexed in DESIGN.md and
// recorded in EXPERIMENTS.md. The benchmarks and integration tests in
// this directory regenerate the paper's quantitative artifacts.
package repro
