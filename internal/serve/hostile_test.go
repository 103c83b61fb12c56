package serve

// Hostile-upload tests: the ingest surface faces arbitrary agents, so
// malformed, lying, truncated, and oversized bodies must come back as
// clean 4xx responses with bounded allocation — the same adversarial
// inputs gmon's FuzzRead seeds exercise, driven through the HTTP
// handlers.

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"runtime"
	"testing"

	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/symtab"
)

// lyingCountBody is a well-formed v1 header declaring 2^27 histogram
// buckets and 2^27 arcs over an empty body: a 48-byte upload that would
// be a multi-gigabyte allocation if the decoder trusted it.
func lyingCountBody() []byte {
	b := append([]byte(nil), []byte("GMON")...)
	b = append(b, 1, 0, 0, 0)
	b = append(b, make([]byte, 32)...) // hz, low, high, step
	b = append(b, 0xff, 0xff, 0xff, 0x07, 0xff, 0xff, 0xff, 0x07)
	return b
}

// v2OverflowBody is a v2 header whose arc varint runs past 64 bits.
func v2OverflowBody() []byte {
	b := append([]byte(nil), []byte("GMON")...)
	b = append(b, 2, 0, 0, 0)
	b = append(b, 60, 0, 0, 0, 0, 0, 0, 0) // hz
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)  // low
	b = append(b, 1, 0, 0, 0, 0, 0, 0, 0)  // high
	b = append(b, 1, 0, 0, 0, 0, 0, 0, 0)  // step
	b = append(b, 1, 0, 0, 0, 1, 0, 0, 0)  // nbkt=1 narc=1
	b = append(b, 0)                       // count[0]=0
	for i := 0; i < 11; i++ {              // 11-byte varint: > 64 bits
		b = append(b, 0x80)
	}
	return b
}

// TestHostileUploads throws the adversarial corpus at /v1/ingest and
// checks every body is rejected 4xx while the server stays healthy.
func TestHostileUploads(t *testing.T) {
	_, imageBytes := sortImage(t)
	srv, ts := newTestServer(t, Config{})
	fp := registerExe(t, ts, imageBytes)

	good := encodeProfile(t, sortProfile(t, 1), gmon.Version1, false)
	truncGzip := func() []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(good)
		zw.Close()
		return buf.Bytes()[:buf.Len()/2]
	}()
	badGzip := append([]byte{0x1f, 0x8b}, []byte("not a gzip stream at all")...)

	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"one byte", []byte("G")},
		{"bad magic", []byte("GMOO____________")},
		{"garbage", bytes.Repeat([]byte{0xa5}, 256)},
		{"truncated header", good[:47]},
		{"truncated mid-section", good[:len(good)/2]},
		{"lying declared counts", lyingCountBody()},
		{"v2 varint overflow", v2OverflowBody()},
		{"gzip magic, garbage stream", badGzip},
		{"truncated gzip", truncGzip},
	}
	for _, tc := range cases {
		resp := ingest(t, ts, fp, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %q: status %s, want 400", tc.name, resp.Status)
		}
		resp.Body.Close()
	}

	// The same garbage against /v1/exe.
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/exe", "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		mustStatus(t, resp, http.StatusBadRequest)
	}

	// The server still ingests and serves after all of it.
	mustStatus(t, ingest(t, ts, fp, good), http.StatusAccepted)
	mustStatus(t, get(t, ts, "/v1/flat?fp="+fp+"&sync=1"), http.StatusOK)

	st := srv.Snapshot()
	if st.RejectedBadRequest < int64(2*len(cases)) {
		t.Errorf("rejected_bad_request = %d, want >= %d", st.RejectedBadRequest, 2*len(cases))
	}
	if st.ProfilesAccepted != 1 {
		t.Errorf("profiles_accepted = %d, want 1", st.ProfilesAccepted)
	}
}

// TestInvalidImageRejectedAtRegistration registers executables whose
// symbol tables fail validation — overlapping routines, an empty
// routine — and checks each is a 400 that takes no shard slot: with
// room for one shard, a valid image still registers afterwards.
func TestInvalidImageRejectedAtRegistration(t *testing.T) {
	im, imageBytes := sortImage(t)
	s, ts := newTestServer(t, Config{MaxShards: 1})
	corrupt := func(edit func(fs []object.Sym)) []byte {
		bad := *im
		bad.Funcs = append([]object.Sym(nil), im.Funcs...)
		edit(bad.Funcs)
		var buf bytes.Buffer
		if err := object.WriteImage(&buf, &bad); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"overlapping routines", corrupt(func(fs []object.Sym) { fs[0].Size = fs[1].Addr - fs[0].Addr + 1 })},
		{"empty routine", corrupt(func(fs []object.Sym) { fs[0].Size = 0 })},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/exe", "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %s, want 400: %s", tc.name, resp.Status, body)
		}
	}
	if n := len(s.allShards()); n != 0 {
		t.Fatalf("%d shards registered from invalid images, want 0", n)
	}
	registerExe(t, ts, imageBytes)
}

// TestOversizedUploads checks the body cap turns into 413 for both
// profile data and executables.
func TestOversizedUploads(t *testing.T) {
	_, imageBytes := sortImage(t)

	// An executable over the cap is 413.
	_, tsTiny := newTestServer(t, Config{MaxBodyBytes: 256})
	respExe, err := http.Post(tsTiny.URL+"/v1/exe", "application/octet-stream", bytes.NewReader(imageBytes))
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, respExe, http.StatusRequestEntityTooLarge)

	// A profile over the cap is 413. The cap is below the image size,
	// so register the shard directly rather than over HTTP.
	im, _ := sortImage(t)
	profile := encodeProfile(t, sortProfile(t, 1), gmon.Version1, false)
	s, ts := newTestServer(t, Config{MaxBodyBytes: int64(len(profile) - 1)})
	const fp = "test-oversize-fp"
	if _, err := s.register(fp, newShard(fp, symtab.New(im), s.cfg, s.metrics, s.rec)); err != nil {
		t.Fatal(err)
	}
	mustStatus(t, ingest(t, ts, fp, profile), http.StatusRequestEntityTooLarge)
}

// TestLyingCountsBoundedAllocation replays the 48-byte header that
// declares 2^27 records many times and checks the heap stays flat: the
// declared-count contract means a lying header cannot buy gigabytes.
func TestLyingCountsBoundedAllocation(t *testing.T) {
	_, imageBytes := sortImage(t)
	_, ts := newTestServer(t, Config{})
	fp := registerExe(t, ts, imageBytes)

	body := lyingCountBody()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 50; i++ {
		resp := ingest(t, ts, fp, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("upload %d: status %s, want 400", i, resp.Status)
		}
		resp.Body.Close()
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	// 50 × 2^27 records would be tens of GB if the header were trusted;
	// demand less than 64 MB of live-heap growth.
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<20 {
		t.Errorf("heap grew %d bytes across 50 lying-count uploads", grew)
	}
}
