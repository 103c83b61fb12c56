// Acceptance tests for the profile data format versions: the
// compressed version-2 layout must decode to the same profile as
// version 1 and be strictly smaller on every workload in the suite.
package repro

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/gmon"
	"repro/internal/workloads"
)

func TestGmonV2SmallerThanV1OnWorkloads(t *testing.T) {
	for _, name := range workloads.Names() {
		im, err := workloads.Build(name, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, _, _, err := workloads.Run(im, workloads.RunConfig{TickCycles: 300, MaxCycles: 1 << 32})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var v1, v2 bytes.Buffer
		if err := gmon.WriteVersion(&v1, p, gmon.Version1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := gmon.WriteVersion(&v2, p, gmon.Version2); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v2.Len() >= v1.Len() {
			t.Errorf("%s: v2 is %d bytes, v1 is %d — no win", name, v2.Len(), v1.Len())
		} else {
			t.Logf("%s: v1 %d bytes -> v2 %d bytes (%.0f%%)",
				name, v1.Len(), v2.Len(), 100*float64(v2.Len())/float64(v1.Len()))
		}
		// Both versions must decode to the same profile (v2 in
		// canonical sorted-arc order).
		canon := p.Clone()
		canon.SortArcs()
		got, err := gmon.Open(bytes.NewReader(v2.Bytes()))
		if err != nil {
			t.Fatalf("%s: decode v2: %v", name, err)
		}
		if !reflect.DeepEqual(got, canon) {
			t.Errorf("%s: v2 decodes to a different profile", name)
		}
	}
}
