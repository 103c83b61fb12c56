package gmon

import (
	"bytes"
	"compress/gzip"
	"context"
	"os"
	"reflect"
	"testing"
)

// gzipped compresses b with the default gzip level.
func gzipped(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOpenReaderSniff: every (version, transport) combination decodes
// to the same profile through the one entry point.
func TestOpenReaderSniff(t *testing.T) {
	want := sample()
	encode := func(version int) []byte {
		var buf bytes.Buffer
		if err := WriteVersion(&buf, want, version); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := map[string][]byte{
		"v1":      encode(Version1),
		"v2":      encode(Version2),
		"v1+gzip": gzipped(t, encode(Version1)),
		"v2+gzip": gzipped(t, encode(Version2)),
	}
	for name, data := range cases {
		got, err := Open(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		canon := want.Clone()
		canon.SortArcs()
		gotCanon := got.Clone()
		gotCanon.SortArcs()
		if !reflect.DeepEqual(gotCanon, canon) {
			t.Errorf("%s: decoded profile diverged", name)
		}
	}
}

// TestOpenReaderErrors: hostile streams surface as errors, never
// panics, and the sniff never misreads garbage as a profile.
func TestOpenReaderErrors(t *testing.T) {
	var v1 bytes.Buffer
	if err := WriteVersion(&v1, sample(), Version1); err != nil {
		t.Fatal(err)
	}
	gz := gzipped(t, v1.Bytes())
	cases := map[string][]byte{
		"empty":            nil,
		"one byte":         {0x1f},
		"garbage":          []byte("this is not profile data"),
		"bad magic":        []byte("GMOO____________________________________________"),
		"gzip, bad header": append([]byte{0x1f, 0x8b}, []byte("nope")...),
		"gzip, truncated":  gz[:len(gz)/2],
		"raw, truncated":   v1.Bytes()[:20],
	}
	for name, data := range cases {
		if _, err := Open(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestSniff pins the head-bytes classifier profdiff and the gprofd
// ingest handler rely on.
func TestSniff(t *testing.T) {
	cases := []struct {
		head string
		want bool
	}{
		{"GMON....", true},
		{"\x1f\x8b\x08", true},
		{"GMO", false},
		{"{\"schema\":", false},
		{"", false},
		{"\x1f", false},
	}
	for _, c := range cases {
		if got := Sniff([]byte(c.head)); got != c.want {
			t.Errorf("Sniff(%q) = %v, want %v", c.head, got, c.want)
		}
	}
}

// TestMergeStreamingGzip: a gzip-compressed file sums transparently
// with raw ones through the streaming merge (the gprof -sum path).
func TestMergeStreamingGzip(t *testing.T) {
	p := sample()
	dir := t.TempDir()
	raw := dir + "/raw.out"
	if err := WriteFileVersion(raw, p, Version1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteVersion(&buf, p, Version1); err != nil {
		t.Fatal(err)
	}
	gzName := dir + "/gz.out"
	if err := os.WriteFile(gzName, gzipped(t, buf.Bytes()), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFiles(context.Background(), []string{raw, gzName}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Clone()
	if err := want.Merge(p); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("gzip + raw merge diverged:\n got %+v\nwant %+v", got, want)
	}
}
