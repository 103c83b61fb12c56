package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"` // end-to-end metrics only
}

type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

func loadSpec(name string) (*benchSpec, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &s, nil
}

// judgement compares one metric's values from the base and the change.
type judgement struct {
	base, change [3]float64 // quartiles; [1] is the median
	winShare     float64    // pairs the change won; ties count for neither
	pairs        int
	verdict      string // better, worse, unchanged or unresolved
}

// judge compares a change's runs with its base's. The change is better
// when it wins at least nine tenths of the pairs and the medians differ
// by more than the base's quartile distance. With a
// bound, it is worse when its median is worse than the base's by more
// than bound × the base median, and unresolved when the base's own
// spread is wider than the bound, unless every change run beats every
// base run. Without a bound, worse mirrors better.
func judge(base, change []float64, lowerIsBetter bool, bound float64, hasBound bool) judgement {
	var j judgement
	j.base[0], j.base[1], j.base[2] = quartiles(base)
	j.change[0], j.change[1], j.change[2] = quartiles(change)
	better := func(a, b float64) bool { return (a < b) == lowerIsBetter && a != b }
	j.pairs = min(len(base), len(change))
	wins, losses := 0, 0
	for i := 0; i < j.pairs; i++ {
		switch {
		case better(change[i], base[i]):
			wins++
		case better(base[i], change[i]):
			losses++
		}
	}
	if j.pairs > 0 {
		j.winShare = float64(wins) / float64(j.pairs)
	}
	mb, mc := j.base[1], j.change[1]
	iqr := j.base[2] - j.base[0]
	apart := math.Abs(mc-mb) > iqr
	worsening := (mc - mb) / math.Abs(mb)
	if !lowerIsBetter {
		worsening = -worsening
	}
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
		}
	}
	switch {
	case j.winShare >= 0.9 && apart && better(mc, mb):
		j.verdict = "better"
	case !hasBound && j.pairs > 0 && float64(losses)/float64(j.pairs) >= 0.9 && apart:
		j.verdict = "worse"
	case hasBound && iqr/math.Abs(mb) > bound:
		j.verdict = "unresolved"
		if allBetter {
			j.verdict = "better"
		}
	case hasBound && worsening > bound:
		j.verdict = "worse"
	default:
		j.verdict = "unchanged"
	}
	return j
}

// compareMain implements `bench compare base/*.json change/*.json` with
// the metrics and bounds of specFile: the result files (written with
// --out) are split into the base and change sets by directory, in the
// order the directories first appear.
func compareMain(specFile string, files []string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	var dirs []string
	sets := map[string][]*result{}
	facts := ""
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 2
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil || r.Schema != resultSchema {
			fmt.Fprintf(stderr, "compare: %s is not a %s result\n", name, resultSchema)
			return 2
		}
		if f := r.Host.comparable(); facts == "" {
			facts = f
		} else if f != facts {
			fmt.Fprintf(stderr, "compare: refusing: %s was measured with %s, earlier files with %s\n", name, f, facts)
			return 2
		}
		d := filepath.Dir(name)
		if _, ok := sets[d]; !ok {
			dirs = append(dirs, d)
		}
		sets[d] = append(sets[d], &r)
	}
	if len(dirs) != 2 {
		fmt.Fprintf(stderr, "compare: want result files from exactly two directories (base, change), got %d\n", len(dirs))
		return 2
	}
	for _, d := range dirs {
		rs := sets[d]
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Host.Seed < rs[j].Host.Seed })
	}
	fmt.Fprintf(stdout, "base %s  change %s  host %s\n", dirs[0], dirs[1], facts)
	fmt.Fprintf(stdout, "%-20s %-30s %-30s %-30s %5s  %s\n", "workload", "metric",
		"base median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	worse := false
	metrics := append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...)
	for _, wl := range workloadNames() {
		for _, m := range metrics {
			base, change := values(sets[dirs[0]], wl, m.Name), values(sets[dirs[1]], wl, m.Name)
			if len(base) == 0 || len(change) == 0 {
				continue
			}
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			j := judge(base, change, m.Better == "lower", bound, m.Bound != nil)
			worse = worse || j.verdict == "worse"
			fmt.Fprintf(stdout, "%-20s %-30s %-30s %-30s %5.2f  %s\n", wl, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", j.base[1], j.base[0], j.base[2]),
				fmt.Sprintf("%.4g [%.4g, %.4g]", j.change[1], j.change[0], j.change[2]),
				j.winShare, j.verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}

// values collects one metric of one workload across a set of results,
// in the set's seed order, so the i'th base and change runs pair up.
func values(rs []*result, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Workload != workload {
			continue
		}
		for _, m := range r.Metrics {
			if m.Name == metric {
				out = append(out, m.Value)
			}
		}
	}
	return out
}
