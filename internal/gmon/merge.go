// Parallel fan-in merge: the paper's "sum several runs" feature (§3)
// scaled to many gmon.out files. Profiles merge tree-wise across a
// worker pool; because bucket and arc counts combine by integer
// addition (commutative and associative), Merge canonicalizes arc
// order, and its duplicate-key rule keeps the runs of the leftmost
// input that has a key, the result is bit-for-bit identical to a
// sequential left-to-right merge no matter how the tree is shaped or
// scheduled.
package gmon

import (
	"context"
	"fmt"
	"os"
	"sync"

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

// MergeAll sums k profiles into one, merging pairs tree-wise across a
// worker pool of the given width (jobs <= 1 folds sequentially). The
// inputs are not modified. The result is identical to merging the
// profiles one at a time in slice order.
func MergeAll(ctx context.Context, profiles []*Profile, jobs int) (*Profile, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("gmon: no profiles to merge")
	}
	if jobs <= 1 || len(profiles) == 2 {
		total := profiles[0].Clone()
		for _, p := range profiles[1:] {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := total.Merge(p); err != nil {
				return nil, err
			}
		}
		return total, nil
	}
	// Each round halves the list: pair (2i, 2i+1) merges into a clone of
	// the left element (first round only — later rounds own their
	// intermediates), an odd tail carries over.
	cur := profiles
	owned := false
	for len(cur) > 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pairs := len(cur) / 2
		next := make([]*Profile, (len(cur)+1)/2)
		errs := make([]error, pairs)
		var wg sync.WaitGroup
		idx := make(chan int)
		workers := jobs
		if workers > pairs {
			workers = pairs
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					if ctx.Err() != nil {
						continue
					}
					left := cur[2*i]
					if !owned {
						left = left.Clone()
					}
					errs[i] = left.Merge(cur[2*i+1])
					next[i] = left
				}
			}()
		}
		for i := 0; i < pairs; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		if len(cur)%2 == 1 {
			tail := cur[len(cur)-1]
			if !owned {
				tail = tail.Clone()
			}
			next[pairs] = tail
		}
		cur = next
		owned = true
	}
	return cur[0], nil
}

// ReadFilesCtx reads several profile data files concurrently and sums
// them across a worker pool, honoring ctx cancellation. Every profile
// must be mergeable with the first; an incompatible or unreadable file
// is reported by name. ReadFilesCtx(ctx, names, 1) is exactly
// ReadFiles. It delegates to MergeAllStreaming, so summing k runs keeps
// one decoded profile per worker, not k.
func ReadFilesCtx(ctx context.Context, names []string, jobs int) (*Profile, error) {
	return MergeAllStreaming(ctx, names, jobs)
}

// scratchPool holds the decode scratch profiles the streaming merge
// reuses: each worker decodes every file it handles into one pooled
// Profile whose histogram and arc storage persists across files.
var scratchPool = sync.Pool{New: func() any { return new(Profile) }}

// readFileInto decodes the named file into the scratch profile, reusing
// its storage, and reports the bytes consumed. Errors are attributed to
// the file. Files decode zero-copy through a read-only mapping where
// the platform allows (readMapped), streaming otherwise; the OpenBytes/
// OpenReader sniff makes gzip-compressed profile data work everywhere
// files are summed (gprof -sum, profdiff, gprofd).
func readFileInto(name string, p *Profile) (int64, error) {
	if st, mapped, err := readMapped(name, p); mapped {
		if err != nil {
			return st.TotalBytes, fmt.Errorf("%s: %w", name, err)
		}
		return st.TotalBytes, nil
	}
	f, err := os.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	d, err := OpenReader(f)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	defer d.Close()
	st, err := decodeInto(d, p)
	if err != nil {
		return st.TotalBytes, fmt.Errorf("%s: %w", name, err)
	}
	return st.TotalBytes, nil
}

// MergeAllStreaming reads the named profile data files and sums them
// without materializing every profile at once: the first file becomes
// the accumulator, and each worker streams its share of the rest
// through a pooled decode scratch (histogram and arc buffers reused
// file to file) into a per-worker partial sum. The result is identical
// to the sequential left-to-right ReadFiles fold for any worker count —
// counts sum and Merge canonicalizes arc order.
//
// An obs.Trace carried by ctx records the whole merge as one "merge"
// span plus a "gmon.read_file" span per input, and feeds the
// gmon.files_read / gmon.bytes_read counters and the merge.workers
// gauge; a canceled or failed merge marks the trace so partial stage
// timings survive.
func MergeAllStreaming(ctx context.Context, names []string, jobs int) (p *Profile, err error) {
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
	firstSpan := tr.Span("gmon.read_file")
	total := &Profile{}
	n, err := readFileInto(names[0], total)
	firstSpan.End()
	bytesC.Add(n)
	if err != nil {
		return nil, err
	}
	filesC.Add(1)
	rest := names[1:]
	if len(rest) == 0 {
		tr.Gauge("merge.workers").Set(1)
		return total, nil
	}
	if jobs <= 1 {
		tr.Gauge("merge.workers").Set(1)
		scratch := scratchPool.Get().(*Profile)
		defer scratchPool.Put(scratch)
		for _, name := range rest {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			readSpan := tr.Span("gmon.read_file")
			n, err := readFileInto(name, scratch)
			readSpan.End()
			bytesC.Add(n)
			if err != nil {
				return nil, err
			}
			filesC.Add(1)
			if err := total.Merge(scratch); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		return total, nil
	}
	workers := jobs
	if workers > len(rest) {
		workers = len(rest)
	}
	tr.Gauge("merge.workers").Set(int64(workers))
	accs := make([]*Profile, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scratch := scratchPool.Get().(*Profile)
			defer scratchPool.Put(scratch)
			for i := range idx {
				if ctx.Err() != nil || errs[w] != nil {
					continue
				}
				name := rest[i]
				readSpan := tr.Span("gmon.read_file")
				n, err := readFileInto(name, scratch)
				readSpan.End()
				bytesC.Add(n)
				if err != nil {
					errs[w] = err
					continue
				}
				filesC.Add(1)
				// Check against the first file's geometry here so the
				// error names the incompatible input, not an
				// intermediate sum.
				if err := total.checkMergeable(scratch); err != nil {
					errs[w] = fmt.Errorf("%s: %w", name, err)
					continue
				}
				if accs[w] == nil {
					accs[w] = scratch.Clone()
				} else if err := accs[w].Merge(scratch); err != nil {
					errs[w] = fmt.Errorf("%s: %w", name, err)
				}
			}
		}(w)
	}
	for i := range rest {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, acc := range accs {
		if acc == nil {
			continue
		}
		if err := total.Merge(acc); err != nil {
			return nil, err
		}
	}
	return total, nil
}
