package core

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/cyclebreak"
	"repro/internal/gmon"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/workloads"
)

// The reuse path's correctness bar: RunFrom on a base renders exactly
// the bytes a fresh Run of the same profile renders, whether it reused
// the base's structure or rebuilt it.

// buildService compiles the service workload once per test binary: its
// dispatch/retry cycle and its never-taken calls exercise cycles,
// static arcs and arc removal.
var buildService = sync.OnceValues(func() (*object.Image, error) {
	return workloads.Build("service", true)
})

func serviceRun(t testing.TB) (*object.Image, *gmon.Profile) {
	t.Helper()
	im, err := buildService()
	if err != nil {
		t.Fatal(err)
	}
	p, _, _, err := workloads.Run(im, workloads.RunConfig{Seed: 3, TickCycles: 300, MaxCycles: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	return im, p
}

// reuseOptions are the structural options every pair runs under.
var reuseOptions = []struct {
	name string
	opt  Options
}{
	{"static", Options{Static: true}},
	{"remove", Options{RemoveArcs: []cyclebreak.ArcID{{Caller: "retry", Callee: "dispatch"}}}},
	{"autobreak", Options{AutoBreak: true}},
}

// render returns the analysis's JSON and full listing.
func render(res *Result) (js, all []byte, err error) {
	var j, a bytes.Buffer
	if err := res.WriteJSON(&j); err != nil {
		return nil, nil, err
	}
	err = res.WriteAll(&a)
	return j.Bytes(), a.Bytes(), err
}

func rendered(t testing.TB, res *Result) (js, all []byte) {
	t.Helper()
	js, all, err := render(res)
	if err != nil {
		t.Fatal(err)
	}
	return js, all
}

// checkRunFrom analyzes base, then p from that analysis, and requires
// the bytes of a fresh Run of p. It returns whether RunFrom reused the
// structure.
func checkRunFrom(t testing.TB, src Source, base, p *gmon.Profile, opt Options) bool {
	t.Helper()
	ctx := context.Background()
	b, err := RunFrom(ctx, nil, src, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunFrom(ctx, b, src, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(ctx, src, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	gj, ga := rendered(t, got)
	wj, wa := rendered(t, want)
	if !bytes.Equal(gj, wj) {
		t.Errorf("RunFrom JSON differs from Run's (reused %v)", got.Reused())
	}
	if !bytes.Equal(ga, wa) {
		t.Errorf("RunFrom listing differs from Run's (reused %v)", got.Reused())
	}
	if got.RemovedArcs != want.RemovedArcs {
		t.Errorf("RunFrom removed %d arcs, Run %d", got.RemovedArcs, want.RemovedArcs)
	}
	return got.Reused()
}

// recounted returns a copy of p with other counts on every arc and
// histogram bucket: another run of the same program.
func recounted(p *gmon.Profile, seed int) *gmon.Profile {
	q := p.Clone()
	for i := range q.Arcs {
		q.Arcs[i].Count += int64((i*7 + seed) % 5)
	}
	for i := range q.Hist.Counts {
		q.Hist.Counts[i] += uint32((i*3 + seed) % 4)
	}
	return q
}

// TestRunFromMatchesRun runs every base/profile pair under every
// structural option: only the same keys in the same order reuse the
// structure, never under AutoBreak, and every pair renders Run's bytes.
func TestRunFromMatchesRun(t *testing.T) {
	im, p0 := serviceRun(t)
	src := ImageSource{Image: im}
	entry := func(name string) int64 {
		for _, s := range im.Funcs {
			if s.Name == name {
				return s.Addr
			}
		}
		t.Fatalf("no routine %s", name)
		return 0
	}
	arcOf := func(p *gmon.Profile, caller, callee string) int {
		for i, a := range p.Arcs {
			for _, s := range im.Funcs {
				if s.Name == caller && s.Addr <= a.FromPC && a.FromPC < s.Addr+s.Size && a.SelfPC == entry(callee) {
					return i
				}
			}
		}
		t.Fatalf("no arc %s/%s", caller, callee)
		return 0
	}
	// The pairs below mean something only if the program has a cycle
	// and a call that never ran.
	static, err := Run(context.Background(), src, p0, Options{Static: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(static.Model.Cycles) == 0 || !slices.ContainsFunc(static.Model.Arcs, func(a model.Arc) bool { return a.Static }) {
		t.Fatalf("service: %d cycles and no static arc", len(static.Model.Cycles))
	}
	pairs := []struct {
		name  string
		reuse bool
		p     func() *gmon.Profile
	}{
		{"same keys, new counts", true, func() *gmon.Profile { return recounted(p0, 1) }},
		{"one arc added", false, func() *gmon.Profile {
			q := recounted(p0, 2)
			q.Arcs = append(q.Arcs, gmon.Arc{FromPC: entry("main"), SelfPC: entry("retry"), Count: 3})
			return q
		}},
		{"one arc dropped", false, func() *gmon.Profile {
			q := recounted(p0, 3)
			q.Arcs = slices.Delete(q.Arcs, 0, 1)
			return q
		}},
		{"records reordered", false, func() *gmon.Profile {
			q := recounted(p0, 4)
			slices.Reverse(q.Arcs)
			return q
		}},
		{"call site moved within its routine", false, func() *gmon.Profile {
			q := recounted(p0, 5)
			q.Arcs[arcOf(q, "retry", "dispatch")].FromPC++
			return q
		}},
	}
	for _, o := range reuseOptions {
		for _, pair := range pairs {
			t.Run(o.name+"/"+pair.name, func(t *testing.T) {
				want := pair.reuse && !o.opt.AutoBreak
				if got := checkRunFrom(t, src, p0, pair.p(), o.opt); got != want {
					t.Errorf("reused %v, want %v", got, want)
				}
			})
		}
	}
	t.Run("other source", func(t *testing.T) {
		if checkRunFrom(t, ImageSource{Image: im}, p0, recounted(p0, 6), Options{}) != true {
			t.Error("the same image did not reuse")
		}
		ctx := context.Background()
		b, err := RunFrom(ctx, nil, src, p0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []Options{{Static: true}, reuseOptions[1].opt} {
			res, err := RunFrom(ctx, b, src, recounted(p0, 7), opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Reused() {
				t.Errorf("options %+v reused a structure built without them", opt)
			}
		}
		other := *im
		res, err := RunFrom(ctx, b, ImageSource{Image: &other}, recounted(p0, 8), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reused() {
			t.Error("another image reused the structure")
		}
	})
	t.Run("one-shot base", func(t *testing.T) {
		// Run keeps no structure, so nothing can build on its Result.
		ctx := context.Background()
		b, err := Run(ctx, src, p0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunFrom(ctx, b, src, recounted(p0, 9), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reused() {
			t.Error("RunFrom reused the structure of a Run")
		}
	})
}

// TestRunFromConcurrent runs analyses of several profiles from one base
// at once: they share its structure and must write nothing of it (run
// under -race), and each renders what a fresh Run renders.
func TestRunFromConcurrent(t *testing.T) {
	im, p0 := serviceRun(t)
	src := ImageSource{Image: im}
	ctx := context.Background()
	for _, opt := range reuseOptions[:2] {
		base, err := RunFrom(ctx, nil, src, p0, opt.opt)
		if err != nil {
			t.Fatal(err)
		}
		const n = 4
		profiles := make([]*gmon.Profile, n)
		wantJS := make([][]byte, n)
		wantAll := make([][]byte, n)
		for i := range profiles {
			profiles[i] = recounted(p0, i+1)
			res, err := Run(ctx, src, profiles[i], opt.opt)
			if err != nil {
				t.Fatal(err)
			}
			wantJS[i], wantAll[i] = rendered(t, res)
		}
		var wg sync.WaitGroup
		errs := make([]string, n)
		for i := range profiles {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := RunFrom(ctx, base, src, profiles[i], opt.opt)
				switch {
				case err != nil:
					errs[i] = err.Error()
				case !res.Reused():
					errs[i] = "did not reuse the base's structure"
				default:
					js, all, err := render(res)
					if err != nil {
						errs[i] = err.Error()
					} else if !bytes.Equal(js, wantJS[i]) || !bytes.Equal(all, wantAll[i]) {
						errs[i] = "rendered other bytes than Run"
					}
				}
			}(i)
		}
		wg.Wait()
		for i, e := range errs {
			if e != "" {
				t.Errorf("%s: profile %d: %s", opt.name, i, e)
			}
		}
	}
}

// FuzzRunFrom builds a base profile of the service program from the
// input, derives a second one by recounting and then adding, dropping,
// swapping or moving records, and requires RunFrom from the base's
// analysis to render a fresh Run's bytes, reusing the structure
// exactly when the keys match and AutoBreak is off.
func FuzzRunFrom(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{1, 1, 12, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6})
	f.Add([]byte{2, 2, 6, 200, 7, 100, 3, 50, 2, 1, 0, 9, 9, 9, 4, 4})
	f.Add([]byte{3, 3, 15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	f.Add([]byte{4, 4, 8, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3})
	im, p0 := serviceRun(f)
	src := ImageSource{Image: im}
	funcs := im.Funcs
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		site := func() int64 {
			b := next()
			if b%11 == 10 {
				return -1 // spontaneous
			}
			s := funcs[b%len(funcs)]
			return s.Addr + int64(next())%s.Size
		}
		record := func() gmon.Arc {
			return gmon.Arc{FromPC: site(), SelfPC: funcs[next()%len(funcs)].Addr, Count: int64(next() % 4)}
		}
		transform, opt := next()%5, reuseOptions[next()%len(reuseOptions)].opt
		base := p0.Clone()
		base.Arcs = nil
		for k := next() % 24; k > 0; k-- {
			base.Arcs = append(base.Arcs, record())
		}
		for i := range base.Hist.Counts {
			base.Hist.Counts[i] = uint32(next() % 3)
		}
		p := recounted(base, next())
		switch transform {
		case 1:
			p.Arcs = append(p.Arcs, record())
		case 2:
			if len(p.Arcs) > 0 {
				i := next() % len(p.Arcs)
				p.Arcs = slices.Delete(p.Arcs, i, i+1)
			}
		case 3:
			if len(p.Arcs) > 0 {
				i, j := next()%len(p.Arcs), next()%len(p.Arcs)
				p.Arcs[i], p.Arcs[j] = p.Arcs[j], p.Arcs[i]
			}
		case 4:
			if len(p.Arcs) > 0 {
				a := &p.Arcs[next()%len(p.Arcs)]
				for _, s := range funcs {
					if s.Addr <= a.FromPC && a.FromPC < s.Addr+s.Size {
						a.FromPC = s.Addr + (a.FromPC-s.Addr+1)%s.Size
					}
				}
			}
		}
		same := len(p.Arcs) == len(base.Arcs)
		for i := 0; same && i < len(p.Arcs); i++ {
			same = p.Arcs[i].FromPC == base.Arcs[i].FromPC && p.Arcs[i].SelfPC == base.Arcs[i].SelfPC
		}
		if got, want := checkRunFrom(t, src, base, p, opt), same && !opt.AutoBreak; got != want {
			t.Errorf("reused %v, want %v (transform %d)", got, want, transform)
		}
	})
}
