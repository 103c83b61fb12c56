package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name          string
		base, change  []float64
		lowerIsBetter bool
		hasBound      bool
		want          string
	}{
		{"same runs", base, base, true, true, "unchanged"},
		{"slightly worse, within the bound", base, scaled(base, 1.05), true, true, "unchanged"},
		{"worse beyond the bound", base, scaled(base, 1.2), true, true, "worse"},
		{"better in every pair", base, scaled(base, 0.8), true, true, "better"},
		{"higher is better", base, scaled(base, 0.8), false, true, "worse"},
		{"spread wider than the bound", noisy, scaled(noisy, 1.05), true, true, "unresolved"},
		{"wide spread but every change run better", noisy, scaled(noisy, 0.3), true, true, "better"},
		{"no bound, consistently worse", base, scaled(base, 1.2), true, false, "worse"},
		{"no bound, mixed", base, scaled(base, 1.01), true, false, "unchanged"},
	} {
		j := judge(tc.base, tc.change, tc.lowerIsBetter, 0.1, tc.hasBound)
		if j.verdict != tc.want {
			t.Errorf("%s: verdict %s (wins %.2f), want %s", tc.name, j.verdict, j.winShare, tc.want)
		}
	}
}

func writeResults(t *testing.T, dir string, gomaxprocs int, latency float64) []string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var names []string
	for seed := uint64(1); seed <= 3; seed++ {
		r := &result{
			Schema:   resultSchema,
			Workload: "cli-report-100k",
			Host:     hostFacts{GOMAXPROCS: gomaxprocs, NumCPU: 2, GoVersion: "go1.24.0", OSArch: "linux/amd64", Jobs: 2, Seed: seed},
			Metrics:  []metric{{Name: "latency_p50_ms", Unit: "ms", Value: latency + float64(seed)}},
		}
		name := filepath.Join(dir, fmt.Sprintf("%s-%d.json", r.Workload, seed))
		if err := writeResult(name, r); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	return names
}

func TestCompareReadsBoundsAndRefusesMixedHosts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := writeResults(t, filepath.Join(dir, "base"), 2, 100)
	change := writeResults(t, filepath.Join(dir, "change"), 2, 200)
	var out, errOut bytes.Buffer
	code := compareMain(spec, append(base, change...), &out, &errOut)
	if code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("doubling latency: exit %d, output\n%s%s", code, out.String(), errOut.String())
	}

	out.Reset()
	single := writeResults(t, filepath.Join(dir, "single-p"), 1, 100)
	code = compareMain(spec, append(base, single...), &out, &errOut)
	if code != 2 || !strings.Contains(errOut.String(), "refusing") || out.Len() != 0 {
		t.Errorf("mixed GOMAXPROCS: exit %d, stdout %q, stderr %q", code, out.String(), errOut.String())
	}
}
