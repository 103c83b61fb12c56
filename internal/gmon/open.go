package gmon

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"

	"repro/internal/binio"
)

// gzipMagic is the two-byte RFC 1952 member header every gzip stream
// starts with.
var gzipMagic = [2]byte{0x1f, 0x8b}

// isGzip reports whether head starts with gzipMagic.
func isGzip(head []byte) bool {
	return len(head) >= 2 && head[0] == gzipMagic[0] && head[1] == gzipMagic[1]
}

// Sniff reports whether head looks like the start of profile data this
// package can decode: a raw GMON file (any version) or a gzip stream
// wrapping one. head needs at least two bytes to identify gzip and four
// to identify a raw file; shorter prefixes report false.
func Sniff(head []byte) bool {
	return isGzip(head) || len(head) >= 4 && bytes.Equal(head[:4], magic[:])
}

// read is the one ingestion path for profile data: it decodes a profile
// into p from src, or from data when src is nil (a mapped file, already
// resident in memory). The first two bytes pick the transport, so gzip
// and identity input decode alike wherever profiles are read (gprof
// -sum, profdiff, the gprofd ingest handler); the header then
// negotiates the format version. Raw data in memory decodes through a
// fixed reader whose record views alias data itself — no block buffer,
// no staging copy — and everything else through a pooled block reader.
// For a gzip stream the reported sizes describe the decompressed
// payload.
func read(src io.Reader, data []byte, p *Profile) (FileStats, error) {
	head := data
	if src != nil {
		var b [2]byte
		n, err := io.ReadFull(src, b[:])
		if err != nil {
			// A stream too short for the sniff is too short for the magic.
			return FileStats{}, fmt.Errorf("gmon: reading magic: %w", eofIsTruncation(err))
		}
		head = b[:n]
		src = io.MultiReader(bytes.NewReader(head), src)
	} else if isGzip(data) {
		src = bytes.NewReader(data)
	}
	if isGzip(head) {
		unzip, err := gzip.NewReader(src)
		if err != nil {
			return FileStats{}, fmt.Errorf("gmon: opening gzip stream: %w", err)
		}
		defer unzip.Close()
		src = unzip
	}
	var br *binio.Reader
	if src != nil {
		br = binio.NewReader(src)
	} else {
		br = binio.NewBytesReader(data)
	}
	defer br.Close()
	return decode(br, p)
}

// Open decodes a whole profile from r: gzip or identity transport, any
// format version.
func Open(r io.Reader) (*Profile, error) {
	p := &Profile{}
	if _, err := read(r, nil, p); err != nil {
		return nil, err
	}
	return p, nil
}

// readFile decodes the named file into p, reusing p's storage, and
// reports its layout. The file decodes zero-copy through a read-only
// mapping where the platform allows, and streams when it cannot be
// mapped at all (a pipe, a permission error), so a real error surfaces
// from the open. Decode errors name the file.
func readFile(name string, p *Profile) (FileStats, error) {
	var st FileStats
	var err error
	if m, merr := binio.Map(name); merr == nil {
		st, err = read(nil, m.Data, p)
		m.Close()
	} else {
		f, oerr := os.Open(name)
		if oerr != nil {
			return FileStats{}, oerr
		}
		st, err = read(f, nil, p)
		f.Close()
	}
	if err != nil {
		return st, fmt.Errorf("%s: %w", name, err)
	}
	return st, nil
}

// ReadFileStats reads a profile from the named file and reports its
// on-disk layout.
func ReadFileStats(name string) (*Profile, FileStats, error) {
	p := &Profile{}
	st, err := readFile(name, p)
	if err != nil {
		return nil, st, err
	}
	return p, st, nil
}

// ReadFile reads a profile from the named file.
func ReadFile(name string) (*Profile, error) {
	p, _, err := ReadFileStats(name)
	return p, err
}
