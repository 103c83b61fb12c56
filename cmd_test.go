// Command-line integration tests: build the real binaries and walk the
// documented workflows end to end.
package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTools compiles every command into a temp dir once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...")
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	return dir
}

func run(t *testing.T, dir, name string, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, name), args...)
	cmd.Dir = dir
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("%s %v: %v", name, args, err)
		}
		// Non-zero exits are fine: vmrun propagates the program's code.
	}
	return stdout.String(), stderr.String()
}

func TestCommandPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildTools(t)

	// vmrun -p -workload sort: writes a.out and gmon.out.
	_, errOut := run(t, dir, "vmrun", "-p", "-workload", "sort")
	if !strings.Contains(errOut, "mcount calls") {
		t.Fatalf("vmrun summary missing: %q", errOut)
	}
	for _, f := range []string{"a.out", "gmon.out"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("vmrun did not write %s: %v", f, err)
		}
	}

	// gprof a.out gmon.out
	out, _ := run(t, dir, "gprof", "a.out", "gmon.out")
	for _, want := range []string{"call graph profile", "flat profile", "qsort", "index by function name"} {
		if !strings.Contains(out, want) {
			t.Errorf("gprof output missing %q", want)
		}
	}

	// gprof with the retrospective options.
	out, _ = run(t, dir, "gprof", "-s", "-C", "-m", "1", "a.out", "gmon.out")
	if !strings.Contains(out, "qsort") {
		t.Errorf("gprof -s -C output missing qsort")
	}
	out, _ = run(t, dir, "gprof", "-focus", "partition", "-graph", "a.out", "gmon.out")
	if !strings.Contains(out, "partition") || strings.Contains(out, "fill [") {
		t.Errorf("focus filter ineffective:\n%s", out)
	}

	// prof a.out gmon.out
	out, _ = run(t, dir, "prof", "a.out", "gmon.out")
	if !strings.Contains(out, "ms/call") || !strings.Contains(out, "less") {
		t.Errorf("prof output malformed:\n%s", out)
	}

	// disasm
	out, _ = run(t, dir, "disasm", "-arcs", "a.out")
	if !strings.Contains(out, "main -> qsort") {
		t.Errorf("disasm -arcs missing static arc:\n%s", out)
	}
	out, _ = run(t, dir, "disasm", "a.out")
	if !strings.Contains(out, "MCOUNT") {
		t.Errorf("disasm missing profiled prologue:\n%s", out)
	}
}

func TestCommandMultiRunMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildTools(t)
	run(t, dir, "vmrun", "-p", "-workload", "matrix", "-o", "gmon.1")
	run(t, dir, "vmrun", "-p", "-workload", "matrix", "-o", "gmon.2")
	out, _ := run(t, dir, "gprof", "-flat", "a.out", "gmon.1", "gmon.2")
	if !strings.Contains(out, "dot") {
		t.Errorf("merged gprof output missing dot:\n%s", out)
	}

	// -sum takes only profile operands (no executable) and must capture
	// the merge of all of them, in either format version.
	run(t, dir, "gprof", "-sum", "sum.v1", "gmon.1", "gmon.2")
	run(t, dir, "gprof", "-sum", "sum.v2", "-format", "2", "gmon.1", "gmon.2")
	for _, sum := range []string{"sum.v1", "sum.v2"} {
		got, _ := run(t, dir, "gprof", "-flat", "a.out", sum)
		if got != out {
			t.Errorf("report from %s differs from direct two-file merge", sum)
		}
	}
}

func TestCommandKprof(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildTools(t)
	_, errOut := run(t, dir, "vmrun", "-p",
		"-workload", "service",
		"-enable-at", "50000",
		"-dump-at", "800000",
		"-o", "gmon.out")
	if !strings.Contains(errOut, "mid-run extract") {
		t.Fatalf("vmrun did not extract mid-run: %q", errOut)
	}
	for _, f := range []string{"gmon.out", "gmon.out.mid"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("vmrun did not write %s", f)
		}
	}
	out, _ := run(t, dir, "gprof", "-graph", "a.out", "gmon.out.mid")
	if !strings.Contains(out, "dispatch") {
		t.Errorf("mid-run profile unusable:\n%s", out)
	}
}

// TestCommandVmrunRejects: flag combinations vmrun cannot honour fail
// with a message and write no profile.
func TestCommandVmrunRejects(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildTools(t)
	if err := os.WriteFile(filepath.Join(dir, "m.tl"), []byte("func main() { return 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "service", "-enable-at", "50000"}, "need -p or -stacks"},
		{[]string{"-workload", "service", "-dump-at", "800000"}, "need -p or -stacks"},
		{[]string{"-p", "-workload", "sort", "m.tl"}, "mutually exclusive"},
	} {
		cmd := exec.Command(filepath.Join(dir, "vmrun"), append(tc.args, "-o", "rejected.out")...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("vmrun %v: err = %v, want exit status 1", tc.args, err)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("vmrun %v: output %q, want %q", tc.args, out, tc.want)
		}
		if _, err := os.Stat(filepath.Join(dir, "rejected.out")); err == nil {
			t.Errorf("vmrun %v wrote a profile", tc.args)
		}
	}
}

func TestCommandFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildTools(t)
	out, _ := run(t, dir, "figures", "-list")
	if !strings.Contains(out, "F4") || !strings.Contains(out, "E11") {
		t.Errorf("figures -list incomplete:\n%s", out)
	}
	out, _ = run(t, dir, "figures", "-id", "F4")
	if !strings.Contains(out, "PASS") || !strings.Contains(out, "EXAMPLE") {
		t.Errorf("figures -id F4:\n%s", out)
	}
}

func TestCommandLinesAndExclude(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildTools(t)
	// Source on disk so -lines can show it.
	src := "func hot() {\n\tvar i = 0;\n\tvar s = 0;\n\twhile (i < 30000) {\n\t\ts = (s*33+i) & 4095;\n\t\ti = i + 1;\n\t}\n\treturn s;\n}\nfunc main() { return hot() & 255; }\n"
	if err := os.WriteFile(filepath.Join(dir, "hot.tl"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	run(t, dir, "vmrun", "-p", "-q", "hot.tl")
	out, _ := run(t, dir, "gprof", "-lines", "a.out", "gmon.out")
	if !strings.Contains(out, "line-level profile") || !strings.Contains(out, "s = (s*33+i) & 4095;") {
		t.Errorf("gprof -lines output:\n%s", out)
	}
	out, _ = run(t, dir, "gprof", "-E", "hot", "-flat", "a.out", "gmon.out")
	if strings.Contains(out, "hot\n") {
		t.Errorf("gprof -E left hot in the flat profile:\n%s", out)
	}
}

func TestCommandStackprof(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildTools(t)
	out, _ := run(t, dir, "vmrun", "-stacks", "-workload", "unequal")
	if !strings.Contains(out, "stack-sample profile") || !strings.Contains(out, "pricey") {
		t.Errorf("vmrun -stacks table:\n%s", out)
	}
	out, _ = run(t, dir, "gprof", "-folded", "a.out", "gmon.out")
	if !strings.Contains(out, "_start;main;pricey;work ") {
		t.Errorf("gprof -folded:\n%s", out)
	}
}

// TestExamplesRun executes every example main to keep them working.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs examples")
	}
	examples, err := filepath.Glob("examples/*")
	if err != nil || len(examples) < 5 {
		t.Fatalf("examples missing: %v (%d found)", err, len(examples))
	}
	for _, dir := range examples {
		dir := dir
		t.Run(filepath.Base(dir), func(t *testing.T) {
			cmd := exec.Command("go", "run", "./"+dir)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("go run %s: %v\n%s", dir, err, out)
			}
			if len(out) == 0 {
				t.Errorf("%s produced no output", dir)
			}
		})
	}
}

func TestCommandDotAndDump(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildTools(t)
	run(t, dir, "vmrun", "-p", "-q", "-workload", "fptr")
	out, _ := run(t, dir, "gprof", "-dot", "a.out", "gmon.out")
	if !strings.Contains(out, "digraph callgraph") || !strings.Contains(out, `"apply" -> "opAdd"`) {
		t.Errorf("gprof -dot output:\n%s", out)
	}
	out, _ = run(t, dir, "gmondump", "-exe", "a.out", "gmon.out")
	for _, want := range []string{"histogram:", "arcs:", "(apply+", "ticks"} {
		if !strings.Contains(out, want) {
			t.Errorf("gmondump missing %q:\n%s", want, out)
		}
	}
}

// TestCommandJobsEquivalence: -jobs 1 (the historic serial pipeline)
// and -jobs 4 render byte-identical reports, across workloads that
// exercise merging, cycles, static arcs, and the breaking heuristic.
func TestCommandJobsEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildTools(t)
	cases := []struct {
		workload string
		args     []string
	}{
		{"service", nil},
		{"parser", []string{"-s", "-C"}},
	}
	for _, tc := range cases {
		run(t, dir, "vmrun", "-p", "-workload", tc.workload, "-o", "gmon.1")
		run(t, dir, "vmrun", "-p", "-workload", tc.workload, "-seed", "9", "-o", "gmon.2")
		base := append([]string{}, tc.args...)
		base = append(base, "a.out", "gmon.1", "gmon.2")
		serial, _ := run(t, dir, "gprof", append([]string{"-jobs", "1"}, base...)...)
		parallel, _ := run(t, dir, "gprof", append([]string{"-jobs", "4"}, base...)...)
		if serial == "" {
			t.Fatalf("%s: empty serial output", tc.workload)
		}
		if serial != parallel {
			t.Errorf("%s %v: -jobs 4 output differs from -jobs 1", tc.workload, tc.args)
		}
	}
}

// TestCommandProfdiff: gprof -json round-trips through profdiff, and
// profdiff reports per-routine deltas between two workload runs — from
// saved JSON profiles, from raw profile data, or a mix of both.
func TestCommandProfdiff(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildTools(t)

	// Two runs of the same program with different seeds: the sort
	// workload's input is rand-driven, so the call counts shift.
	run(t, dir, "vmrun", "-p", "-q", "-workload", "sort", "-o", "gmon.1")
	run(t, dir, "vmrun", "-p", "-q", "-workload", "sort", "-seed", "99", "-o", "gmon.2")

	// Save both as JSON profiles.
	for _, pair := range [][2]string{{"gmon.1", "old.json"}, {"gmon.2", "new.json"}} {
		out, errOut := run(t, dir, "gprof", "-json", "a.out", pair[0])
		if !strings.Contains(out, `"schema": "gprof.profile.v1"`) {
			t.Fatalf("gprof -json missing schema tag (stderr %q):\n%.400s", errOut, out)
		}
		if err := os.WriteFile(filepath.Join(dir, pair[1]), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A profile diffed against itself reports no changes.
	out, errOut := run(t, dir, "profdiff", "old.json", "old.json")
	if !strings.Contains(out, "no per-routine changes") {
		t.Errorf("self-diff not empty (stderr %q):\n%s", errOut, out)
	}

	// Different runs: deltas appear, naming workload routines.
	fromJSON, errOut := run(t, dir, "profdiff", "old.json", "new.json")
	if !strings.Contains(fromJSON, "Dtotal") || !strings.Contains(fromJSON, "qsort") {
		t.Errorf("profdiff on JSON profiles (stderr %q):\n%s", errOut, fromJSON)
	}

	// Raw profile data analyzed on the fly gives the same table.
	fromGmon, errOut := run(t, dir, "profdiff", "-exe", "a.out", "-jobs", "1", "gmon.1", "gmon.2")
	if errOut != "" {
		t.Fatalf("profdiff on gmon files: %s", errOut)
	}
	// Strip the header line (it names the operands) before comparing.
	tail := func(s string) string { return s[strings.Index(s, "\n"):] }
	if tail(fromGmon) != tail(fromJSON) {
		t.Errorf("JSON and gmon operands disagree:\n--- json\n%s\n--- gmon\n%s", fromJSON, fromGmon)
	}

	// Mixed operands work too.
	mixed, _ := run(t, dir, "profdiff", "-exe2", "a.out", "old.json", "gmon.2")
	if tail(mixed) != tail(fromJSON) {
		t.Errorf("mixed operands disagree:\n--- json\n%s\n--- mixed\n%s", fromJSON, mixed)
	}

	// -top truncates and says so.
	topped, _ := run(t, dir, "profdiff", "-top", "1", "old.json", "new.json")
	if !strings.Contains(topped, "more changed routine(s)") {
		t.Errorf("-top 1 did not truncate:\n%s", topped)
	}
}

// TestCommandStatsNoDrift is the observability non-interference
// guarantee: -stats, -tracefile, and -runreport leave gprof's stdout
// byte-identical, write diagnostics only to stderr and the named
// files, and the files validate under tracecheck and carry a span for
// every pipeline stage.
func TestCommandStatsNoDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildTools(t)
	run(t, dir, "vmrun", "-p", "-q", "-workload", "service", "-o", "gmon.1")
	run(t, dir, "vmrun", "-p", "-q", "-workload", "service", "-seed", "9", "-o", "gmon.2")

	base, baseErr := run(t, dir, "gprof", "-jobs", "1", "a.out", "gmon.1", "gmon.2")
	if base == "" {
		t.Fatal("empty baseline gprof output")
	}
	if baseErr != "" {
		t.Fatalf("baseline gprof wrote to stderr: %q", baseErr)
	}

	observed, errOut := run(t, dir, "gprof",
		"-jobs", "1", "-stats", "-tracefile", "t.json", "-runreport", "r.json",
		"a.out", "gmon.1", "gmon.2")
	if observed != base {
		t.Errorf("-stats/-tracefile/-runreport changed stdout")
	}
	if !strings.Contains(errOut, "self-observability") {
		t.Errorf("-stats summary missing from stderr: %q", errOut)
	}

	// The run report carries a span for every pipeline stage.
	data, err := os.ReadFile(filepath.Join(dir, "r.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{
		`"merge"`, `"gmon.read_file"`, `"load.image"`, `"load"`, `"graph"`,
		`"attribute"`, `"scc"`, `"propagate"`, `"model-build"`, `"render"`,
		`"render.callgraph"`, `"render.flat"`, `"render.index"`,
	} {
		if !strings.Contains(string(data), stage) {
			t.Errorf("run report missing stage %s", stage)
		}
	}
	if !strings.Contains(string(data), `"complete": true`) {
		t.Errorf("successful run not marked complete:\n%s", data)
	}

	// Both artifacts validate.
	_, errOut = run(t, dir, "tracecheck", "t.json", "r.json")
	if strings.Count(errOut, ": ok (") != 2 {
		t.Errorf("tracecheck rejected the artifacts:\n%s", errOut)
	}

	// vmrun surfaces the engine and arc-table internals under -stats.
	_, errOut = run(t, dir, "vmrun", "-p", "-q", "-workload", "service", "-stats", "-o", "gmon.3")
	for _, want := range []string{"vm.batches", "mon.arc_cache_hits", "mon.arena_cells", "mon.hash_max_chain"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("vmrun -stats missing %s:\n%s", want, errOut)
		}
	}

	// Stack sampling and the extraction schedule are observable too:
	// the stack collector's counters, the mid-run extraction span, and
	// a trace file that validates.
	_, errOut = run(t, dir, "vmrun", "-stacks", "-q", "-workload", "service",
		"-dump-at", "800000", "-stats", "-tracefile", "vm.json", "-o", "gmon.4")
	for _, want := range []string{"mon.stack_samples", "mon.stack_inserts", "mon.stack_probes", "write.profile.mid"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("vmrun -stacks -stats missing %s:\n%s", want, errOut)
		}
	}
	_, errOut = run(t, dir, "tracecheck", "vm.json")
	if strings.Count(errOut, ": ok (") != 1 {
		t.Errorf("tracecheck rejected the vmrun -stacks trace:\n%s", errOut)
	}
}
