package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry is the always-on, labeled side of the observability layer —
// the source a /metrics scrape reads. Where a Trace accumulates spans
// for one run and grows without bound, a Registry holds a fixed set of
// metric families (counter, gauge, histogram) whose series are keyed by
// label values, with constant memory per series. It exists so a
// long-running service can expose Prometheus-style metrics with no new
// dependency: WriteExposition renders it in the text exposition format.
//
// Series lookups take the registry lock; hot paths should resolve their
// series once (or cache per label combination, as internal/serve does)
// and Add/Observe on the result. A nil *Registry hands out nil metrics,
// which are no-ops, so the registry can be threaded optionally just
// like a Trace.
type Registry struct {
	mu       sync.Mutex
	families map[string]*metricFamily
}

// MetricKind distinguishes the three family types in an exposition.
type MetricKind int

const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

// String returns the exposition TYPE keyword for the kind.
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// metricFamily is one named family: a kind, help text, and its series
// keyed by canonical label strings.
type metricFamily struct {
	name   string
	help   string
	kind   MetricKind
	series map[string]any // canonical label key -> *Counter | *Gauge | *Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*metricFamily)}
}

// labelKey canonicalizes "k1,v1,k2,v2,..." pairs into the exact label
// string the exposition emits, sorted by label name so the same label
// set always maps to the same series. Panics on an odd pair count or an
// invalid label name — misregistration is a programming error the tests
// catch, not a runtime condition.
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be name/value pairs")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		if !validMetricName(labels[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q", labels[i]))
		}
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the exposition-format escapes to a label
// value: backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// validMetricName reports whether s matches the exposition identifier
// charset [a-zA-Z_:][a-zA-Z0-9_:]* (colons allowed in metric names per
// the format; we accept them for labels too and simply never use them).
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// family returns the named family, creating it on first use, and panics
// if the name was previously registered with a different kind.
func (r *Registry) family(name, help string, kind MetricKind) *metricFamily {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	f, ok := r.families[name]
	if !ok {
		f = &metricFamily{name: name, help: help, kind: kind, series: make(map[string]any)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %v and %v", name, f.kind, kind))
	}
	return f
}

// Counter returns the counter series for the given family and label
// pairs ("k1", "v1", "k2", "v2", ...), registering family and series on
// first use. Nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, KindCounter)
	key := labelKey(labels)
	if m, ok := f.series[key]; ok {
		return m.(*Counter)
	}
	c := &Counter{}
	f.series[key] = c
	return c
}

// Gauge returns the gauge series for the given family and label pairs,
// registering on first use. Nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, KindGauge)
	key := labelKey(labels)
	if m, ok := f.series[key]; ok {
		return m.(*Gauge)
	}
	g := &Gauge{}
	f.series[key] = g
	return g
}

// Histogram returns the histogram series for the given family and label
// pairs, registering on first use. Nil registry returns a nil (no-op)
// histogram.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, KindHistogram)
	key := labelKey(labels)
	if m, ok := f.series[key]; ok {
		return m.(*Histogram)
	}
	h := &Histogram{}
	f.series[key] = h
	return h
}

// snapshotFamilies returns the families sorted by name, each with its
// series keys sorted, so the exposition is deterministic.
func (r *Registry) snapshotFamilies() []expoFamilySnap {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]expoFamilySnap, 0, len(r.families))
	for _, f := range r.families {
		s := expoFamilySnap{name: f.name, help: f.help, kind: f.kind}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s.series = append(s.series, expoSeriesSnap{labels: k, metric: f.series[k]})
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

type expoFamilySnap struct {
	name   string
	help   string
	kind   MetricKind
	series []expoSeriesSnap
}

type expoSeriesSnap struct {
	labels string
	metric any
}
