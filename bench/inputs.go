package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/synth"
	"repro/internal/workloads"
)

// rng is splitmix64, so inputs depend on the seed alone.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// perturbed returns run v of the program base was measured on: the same
// call graph and histogram geometry with seeded noise on every arc and
// bucket count. Summing such runs is the paper's "profile of many
// executions" of one program; distinct synth seeds would instead give
// graphs that barely overlap.
func perturbed(base *gmon.Profile, seed uint64, v int) *gmon.Profile {
	p := base.Clone()
	r := rng(seed*0x100000001b3 + uint64(v))
	for i := range p.Arcs {
		p.Arcs[i].Count += int64(r.next() % 8)
	}
	for i := range p.Hist.Counts {
		p.Hist.Counts[i] += uint32(r.next() % 4)
	}
	return p
}

// encode renders p in one format version, optionally gzipped.
func encode(p *gmon.Profile, version int, zip bool) ([]byte, error) {
	var buf bytes.Buffer
	if !zip {
		err := gmon.WriteVersion(&buf, p, version)
		return buf.Bytes(), err
	}
	zw := gzip.NewWriter(&buf)
	if err := gmon.WriteVersion(zw, p, version); err != nil {
		return nil, err
	}
	err := zw.Close()
	return buf.Bytes(), err
}

// synthProgram is one generated program on disk: its image and a set of
// v2 profile files of perturbed runs.
type synthProgram struct {
	image    string
	profiles []string
	bodies   [][]byte // the bytes of profiles
}

// writeSynth generates synth.Tier(nodes, seed) into dir: the image, and
// either the generated profile itself (runs == 0) or that many
// perturbed runs of it.
func writeSynth(dir string, nodes int, seed uint64, runs int) (*synthProgram, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := synth.Generate(synth.Tier(nodes, seed))
	sp := &synthProgram{image: filepath.Join(dir, "a.out")}
	if err := object.WriteImageFile(sp.image, w.Image()); err != nil {
		return nil, err
	}
	profs := []*gmon.Profile{w.Prof}
	if runs > 0 {
		profs = make([]*gmon.Profile, runs)
		for v := range profs {
			profs[v] = perturbed(w.Prof, seed, v+1)
		}
	}
	for v, p := range profs {
		body, err := encode(p, gmon.Version2, false)
		if err != nil {
			return nil, err
		}
		name := filepath.Join(dir, fmt.Sprintf("gmon.%d", v+1))
		if err := os.WriteFile(name, body, 0o644); err != nil {
			return nil, err
		}
		sp.profiles = append(sp.profiles, name)
		sp.bodies = append(sp.bodies, body)
	}
	return sp, nil
}

// transports are the six upload encodings of the toy corpus: format
// v1/v2/v3, identity or gzip. Only v3 carries the stack table.
var transports = []struct {
	version int
	zip     bool
}{
	{gmon.Version1, false}, {gmon.Version2, false}, {gmon.Version3, false},
	{gmon.Version1, true}, {gmon.Version2, true}, {gmon.Version3, true},
}

// corpusRun is one profiled run of a toy program in every transport.
type corpusRun struct {
	bodies [][]byte // one per transport
	files  []string // the bodies on disk, for the traced decode
}

// corpusItem is one toy program: its image and profiled runs.
type corpusItem struct {
	name  string
	image string
	body  []byte // the image bytes
	fp    string // gprofd fingerprint, once registered
	runs  []corpusRun
}

// corpusSeeds is how many profiled runs each toy program contributes.
const corpusSeeds = 3

// buildCorpus compiles and profiles every internal/workloads program
// corpusSeeds times, seeding the simulated runs from seed, and writes
// each program's image and profile bodies under dir.
func buildCorpus(dir string, seed uint64) ([]*corpusItem, error) {
	var items []*corpusItem
	for _, name := range workloads.Names() {
		im, err := workloads.Build(name, true)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", name, err)
		}
		it := &corpusItem{name: name, image: filepath.Join(dir, name+".out")}
		var buf bytes.Buffer
		if err := object.WriteImage(&buf, im); err != nil {
			return nil, err
		}
		it.body = buf.Bytes()
		if err := os.WriteFile(it.image, it.body, 0o644); err != nil {
			return nil, err
		}
		for s := 0; s < corpusSeeds; s++ {
			p, _, _, err := workloads.Run(im, workloads.RunConfig{Seed: seed*corpusSeeds + uint64(s), Stacks: true})
			if err != nil {
				return nil, fmt.Errorf("profiling %s: %w", name, err)
			}
			var cr corpusRun
			for t, tr := range transports {
				body, err := encode(p, tr.version, tr.zip)
				if err != nil {
					return nil, err
				}
				f := filepath.Join(dir, fmt.Sprintf("%s.%d.%d.gmon", name, s, t))
				if err := os.WriteFile(f, body, 0o644); err != nil {
					return nil, err
				}
				cr.bodies = append(cr.bodies, body)
				cr.files = append(cr.files, f)
			}
			it.runs = append(it.runs, cr)
		}
		items = append(items, it)
	}
	return items, nil
}

// mergeBodies decodes upload bodies the way gprofd does and sums them:
// what the server's merge of the same uploads must equal.
func mergeBodies(ctx context.Context, bodies [][]byte) (*gmon.Profile, error) {
	runs, err := decodeAll(bodies)
	if err != nil {
		return nil, err
	}
	return gmon.MergeAll(ctx, runs, 1)
}

func decodeAll(bodies [][]byte) ([]*gmon.Profile, error) {
	runs := make([]*gmon.Profile, len(bodies))
	for i, b := range bodies {
		var err error
		if runs[i], err = gmon.Open(bytes.NewReader(b)); err != nil {
			return nil, err
		}
	}
	return runs, nil
}
