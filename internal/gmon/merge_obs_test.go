package gmon

import (
	"context"
	"math/rand"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// writeProfiles writes n random-but-mergeable profile files and
// returns their names.
func writeProfiles(t *testing.T, n int) []string {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(23))
	names := make([]string, n)
	for i := range names {
		names[i] = filepath.Join(dir, "gmon."+string(rune('a'+i)))
		if err := WriteFileVersion(names[i], randomProfile(rng), Version1); err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// stageByName pulls one stage row out of a run report.
func stageByName(r obs.RunReport, name string) (obs.StageTiming, bool) {
	for _, st := range r.Stages {
		if st.Name == name {
			return st, true
		}
	}
	return obs.StageTiming{}, false
}

// TestMergeRecordsTrace: a traced streaming merge records the merge
// span, one read span per input, and the file/byte counters.
func TestMergeRecordsTrace(t *testing.T) {
	names := writeProfiles(t, 5)
	for _, jobs := range []int{1, 4} {
		tr := obs.New()
		ctx := obs.NewContext(context.Background(), tr)
		if _, err := ReadFiles(ctx, names, jobs); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		r := tr.Report()
		if !r.Complete {
			t.Errorf("jobs=%d: report not complete: %q", jobs, r.Error)
		}
		if st, ok := stageByName(r, "merge"); !ok || st.Count != 1 {
			t.Errorf("jobs=%d: merge span missing or duplicated: %+v", jobs, st)
		}
		if st, ok := stageByName(r, "gmon.read_file"); !ok || st.Count != int64(len(names)) {
			t.Errorf("jobs=%d: want %d read spans, got %+v", jobs, len(names), st)
		}
		if got := r.Counters["gmon.files_read"]; got != int64(len(names)) {
			t.Errorf("jobs=%d: files_read = %d, want %d", jobs, got, len(names))
		}
		if r.Counters["gmon.bytes_read"] <= 0 {
			t.Errorf("jobs=%d: bytes_read not recorded", jobs)
		}
	}
}

// failAfterCtx reports context.Canceled from its (n+1)-th Err() call
// on: a deterministic stand-in for a signal arriving mid-merge, where
// WithCancel plus goroutine timing would race.
type failAfterCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *failAfterCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func (c *failAfterCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

// TestMergeCancelPartialReport is the partial-run diagnosability
// guarantee: a merge canceled after the first file still yields a
// report carrying the stages and counters recorded so far, marked
// incomplete with the cancellation error.
func TestMergeCancelPartialReport(t *testing.T) {
	names := writeProfiles(t, 4)
	tr := obs.New()
	// Err() call #1 is the pre-read check; #2 is the first loop
	// iteration, so exactly one file is read before the abort.
	ctx := &failAfterCtx{Context: obs.NewContext(context.Background(), tr), after: 1}
	_, err := ReadFiles(ctx, names, 1)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	r := tr.Report()
	if r.Complete {
		t.Error("canceled merge reported complete")
	}
	if !strings.Contains(r.Error, "canceled") {
		t.Errorf("report error = %q, want cancellation", r.Error)
	}
	if st, ok := stageByName(r, "merge"); !ok || st.Count != 1 {
		t.Errorf("merge span missing from partial report: %+v", st)
	}
	if st, ok := stageByName(r, "gmon.read_file"); !ok || st.Count != 1 {
		t.Errorf("want exactly 1 read span before the abort, got %+v", st)
	}
	if got := r.Counters["gmon.files_read"]; got != 1 {
		t.Errorf("files_read = %d, want 1", got)
	}

	// The emitted JSON document says the same thing.
	var buf strings.Builder
	if err := tr.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{obs.RunReportSchema, `"complete": false`, "context canceled"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report JSON missing %q:\n%s", want, buf.String())
		}
	}
}
