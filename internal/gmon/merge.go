// Parallel fan-in merge: the paper's "sum several runs" feature (§3)
// scaled to many gmon.out files. One worker fold serves in-memory
// profiles (MergeAll) and files (ReadFiles): each worker sums its
// inputs into its own accumulator, and the accumulators fold into the
// first input's copy in worker order. Because bucket and arc counts
// combine by integer addition (commutative and associative), Merge
// canonicalizes arc order, and its duplicate-key rule keeps the runs of
// the leftmost input that has a key, the result is bit-for-bit
// identical to a sequential left-to-right merge no matter how many
// workers run or which inputs each one takes.
package gmon

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// checkMergeable reports why other cannot be summed into p, if so: the
// histogram geometry and clock rate must agree, the same restriction
// real gprof places on summed gmon.out files.
func (p *Profile) checkMergeable(other *Profile) error {
	if p.Hist.Low != other.Hist.Low || p.Hist.High != other.Hist.High || p.Hist.Step != other.Hist.Step {
		return fmt.Errorf("gmon: merge: histogram geometry mismatch: [%#x,%#x)/%d vs [%#x,%#x)/%d",
			p.Hist.Low, p.Hist.High, p.Hist.Step,
			other.Hist.Low, other.Hist.High, other.Hist.Step)
	}
	if p.ClockHz() != other.ClockHz() {
		return fmt.Errorf("gmon: merge: clock rate mismatch: %d vs %d Hz", p.ClockHz(), other.ClockHz())
	}
	return nil
}

// MergeAll sums k profiles into one across a worker pool of the given
// width (jobs <= 1 folds sequentially). The inputs are not modified and
// the result shares no storage with them. The result is identical to
// merging the profiles one at a time in slice order.
func MergeAll(ctx context.Context, profiles []*Profile, jobs int) (*Profile, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("gmon: no profiles to merge")
	}
	total := profiles[0].Clone()
	rest := profiles[1:]
	err := fold(ctx, total, len(rest), jobs, nil, func(i int, _ *Profile) (*Profile, error) {
		return rest[i], nil
	})
	if err != nil {
		return nil, err
	}
	return total, nil
}

// ReadFiles reads the named profile data files and sums them — the
// paper's "profile of many executions" — across a worker pool of the
// given width (jobs <= 1 reads sequentially), honoring ctx
// cancellation. The first file becomes the accumulator, and each worker
// decodes its share of the rest through a pooled scratch profile whose
// storage persists file to file, so summing k runs keeps one decoded
// profile per worker, not k. Every profile must be mergeable with the
// first; an incompatible or unreadable file is reported by name.
//
// An obs.Trace carried by ctx records the whole merge as one "merge"
// span plus a "gmon.read_file" span per input, and feeds the
// gmon.files_read / gmon.bytes_read counters and the merge.workers
// gauge; a canceled or failed merge marks the trace so partial stage
// timings survive.
func ReadFiles(ctx context.Context, names []string, jobs int) (p *Profile, err error) {
	tr := obs.FromContext(ctx)
	defer tr.Span("merge").End()
	defer func() {
		if err != nil {
			tr.Fail(err)
		}
	}()
	filesC := tr.Counter("gmon.files_read")
	bytesC := tr.Counter("gmon.bytes_read")
	if len(names) == 0 {
		return nil, fmt.Errorf("gmon: no profile data files")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	readOne := func(name string, p *Profile) error {
		span := tr.Span("gmon.read_file")
		st, err := readFile(name, p)
		span.End()
		bytesC.Add(st.TotalBytes)
		if err == nil {
			filesC.Add(1)
		}
		return err
	}
	total := &Profile{}
	if err := readOne(names[0], total); err != nil {
		return nil, err
	}
	rest := names[1:]
	tr.Gauge("merge.workers").Set(int64(foldWidth(jobs, len(rest))))
	err = fold(ctx, total, len(rest), jobs, rest, func(i int, scratch *Profile) (*Profile, error) {
		return scratch, readOne(rest[i], scratch)
	})
	if err != nil {
		return nil, err
	}
	return total, nil
}

// scratchPool holds the decode scratch profiles fold hands its loaders:
// each worker decodes every file it handles into one pooled Profile
// whose histogram and arc storage persists across files.
var scratchPool = sync.Pool{New: func() any { return new(Profile) }}

// foldWidth is the number of workers fold runs for n inputs.
func foldWidth(jobs, n int) int { return max(1, min(jobs, n)) }

// fold sums n inputs into total across foldWidth(jobs, n) workers. load
// returns input i, decoding it into the worker's pooled scratch profile
// when it reads a file; names, when non-nil, names input i in the
// errors fold raises itself. Each worker takes the next unclaimed input
// and sums it into its own accumulator (a lone worker sums straight
// into total), and the accumulators fold into total in worker order.
func fold(ctx context.Context, total *Profile, n, jobs int, names []string, load func(i int, scratch *Profile) (*Profile, error)) error {
	if n == 0 {
		return nil
	}
	workers := foldWidth(jobs, n)
	accs := make([]*Profile, workers)
	if workers == 1 {
		accs[0] = total
	}
	errs := make([]error, workers)
	var next atomic.Int64
	work := func(w int) {
		scratch := scratchPool.Get().(*Profile)
		defer scratchPool.Put(scratch)
		for {
			i := int(next.Add(1)) - 1
			if i >= n || ctx.Err() != nil {
				return
			}
			p, err := load(i, scratch)
			if err != nil {
				errs[w] = err
				return
			}
			// Check against total's geometry here so the error names
			// the incompatible input, not a partial sum.
			if err = total.checkMergeable(p); err == nil {
				if accs[w] == nil {
					accs[w] = p.Clone()
				} else {
					err = accs[w].Merge(p)
				}
			}
			if err != nil {
				if names != nil {
					err = fmt.Errorf("%s: %w", names[i], err)
				}
				errs[w] = err
				return
			}
		}
	}
	if workers == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(w)
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, acc := range accs {
		if acc == nil || acc == total {
			continue
		}
		if err := total.Merge(acc); err != nil {
			return err
		}
	}
	return nil
}
