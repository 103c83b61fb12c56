// Differential proof that the fast interpreter loop is observationally
// equal to the reference loop over real programs: every workload in the
// suite must produce the same Result{Cycles,Ticks,Retired}, the same
// exit code, and a byte-identical gmon encoding on both loops — with
// monitoring attached and with the collector reused across Resets. The
// random-program counterpart lives in internal/vm/diff_test.go.
package repro

import (
	"bytes"
	"testing"

	"repro/internal/gmon"
	"repro/internal/mon"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// profileBytes encodes a snapshot to the gmon wire format; byte equality
// is the strongest equivalence the paper's toolchain can observe.
func profileBytes(t *testing.T, c *mon.Collector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gmon.WriteVersion(&buf, c.Snapshot(), gmon.Version1); err != nil {
		t.Fatalf("encode profile: %v", err)
	}
	return buf.Bytes()
}

func TestFastMatchesReferenceWorkloads(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			im, err := workloads.Build(name, true)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			collector := mon.New(im, mon.Config{})
			m := vm.New(im, vm.Config{
				Monitor:    collector,
				TickCycles: 200,
				RandSeed:   7,
				MaxCycles:  1 << 28,
			})

			fastRes, err := m.Run()
			if err != nil {
				t.Fatalf("fast run: %v", err)
			}
			fastProf := profileBytes(t, collector)

			// Reuse the same machine and collector: Reset must restore
			// the freshly-loaded state exactly. Reset preserves the
			// enabled flag (moncontrol semantics) and a workload may
			// exit with monitoring stopped, so reuse re-enables.
			m.Reset()
			collector.Reset()
			collector.Enable()
			refRes, err := m.RunReference()
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			refProf := profileBytes(t, collector)

			if fastRes != refRes {
				t.Errorf("Result mismatch:\nfast: %+v\nref:  %+v", fastRes, refRes)
			}
			if !bytes.Equal(fastProf, refProf) {
				t.Errorf("profile bytes differ: fast %d bytes, ref %d bytes",
					len(fastProf), len(refProf))
			}

			// And the profile must survive a second fast run after Reset
			// (the benchmark driver's reuse pattern).
			m.Reset()
			collector.Reset()
			collector.Enable()
			againRes, err := m.Run()
			if err != nil {
				t.Fatalf("second fast run: %v", err)
			}
			if againRes != fastRes {
				t.Errorf("fast rerun after Reset: %+v, want %+v", againRes, fastRes)
			}
			if again := profileBytes(t, collector); !bytes.Equal(again, fastProf) {
				t.Errorf("fast rerun profile differs after Reset")
			}
		})
	}
}
