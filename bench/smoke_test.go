package main

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// tinySizes runs every workload at 10^3 routines with short phases.
var tinySizes = sizes{
	reportNodes:  1000,
	sumNodes:     1000,
	sumFiles:     3,
	visibleNodes: 1000,
	variants:     2,
	warmPerCycle: 2,
	scaleNodes:   1000,
	ladder:       []float64{200, 400},
	refRung:      0,
	setups:       2,
}

// TestSmokeAllWorkloads builds gprof and gprofd from this checkout and
// runs every workload untraced and traced for a second each: the gates
// pass, and the final line carries exactly the metrics BENCHMARK.json
// names.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the programs under test and runs every workload")
	}
	ctx := context.Background()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	sort.Strings(listed)
	if !reflect.DeepEqual(listed, workloadNames()) {
		t.Errorf("BENCHMARK.json lists workloads %v, the harness runs %v", listed, workloadNames())
	}
	bin := t.TempDir()
	if err := buildTools(ctx, root, bin); err != nil {
		t.Fatal(err)
	}
	names := func(ms []specMetric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	for _, wl := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(wl+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				cfg := config{workload: wl, seed: 7, seconds: time.Second, trace: trace,
					root: root, work: t.TempDir(), bin: bin, jobs: 2, sz: tinySizes}
				res, err := run(ctx, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted == 0 {
					t.Fatalf("correct %t, attempted %d, failed %d, gates %+v", res.Correct, res.Attempted, res.Failed, res.Gates)
				}
				var out bytes.Buffer
				if err := finalLine(&out, res); err != nil {
					t.Fatal(err)
				}
				var line map[string]json.RawMessage
				if err := json.Unmarshal(out.Bytes(), &line); err != nil {
					t.Fatal(err)
				}
				var keys []string
				for k := range line {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
					t.Errorf("final line keys %v, want %v", keys, want)
				}
				var metrics map[string]struct{ Unit string }
				if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				var got []string
				for name, m := range metrics {
					got = append(got, name)
					for _, w := range want {
						if w.Name == name && w.Unit != m.Unit {
							t.Errorf("%s: unit %s, BENCHMARK.json says %s", name, m.Unit, w.Unit)
						}
					}
				}
				sort.Strings(got)
				if !reflect.DeepEqual(got, names(want)) {
					t.Errorf("metrics %v, BENCHMARK.json names %v", got, names(want))
				}
			})
		}
	}
}
