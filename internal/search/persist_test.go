package search

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestIndexRoundTrip(t *testing.T) {
	ix := smallIndex()
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}
	loaded, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != ix.Len() {
		t.Fatalf("loaded %d docs, want %d", loaded.Len(), ix.Len())
	}
	// Identical search behaviour.
	for _, q := range []string{"louvre museum", "melisse", "melisse santa monica", "forecast"} {
		a := ix.Search(q, 5)
		b := loaded.Search(q, 5)
		if len(a) != len(b) {
			t.Fatalf("query %q: %d vs %d results", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("query %q result %d differs: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	if _, err := ReadIndex(bytes.NewReader([]byte("not an index at all"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadIndex(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestReadIndexRejectsTruncated(t *testing.T) {
	ix := smallIndex()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{5, 9, len(data) / 2, len(data) - 3} {
		if _, err := ReadIndex(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// failAfter is an io.Writer that accepts n bytes then fails, driving every
// write-error return in the persist writers.
type failAfter struct {
	n int
}

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errors.New("failAfter: write refused")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteToPropagatesErrors sweeps the failure point across the whole
// stream for both writers: every short write must surface an error (never a
// silent truncated file).
func TestWriteToPropagatesErrors(t *testing.T) {
	mono := smallIndex()
	var buf bytes.Buffer
	if _, err := mono.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < buf.Len(); cut += 7 {
		if _, err := mono.WriteTo(&failAfter{n: cut}); err == nil {
			t.Fatalf("monolithic WriteTo with write failure at byte %d reported success", cut)
		}
	}

	sharded := shardedSmallIndex(3)
	buf.Reset()
	if _, err := sharded.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < buf.Len(); cut += 7 {
		if _, err := sharded.WriteTo(&failAfter{n: cut}); err == nil {
			t.Fatalf("sharded WriteTo with write failure at byte %d reported success", cut)
		}
	}
}

// TestReadV4TruncationSweep: every proper prefix of a v4 stream must be
// rejected with an error — no prefix may load and none may panic.
func TestReadV4TruncationSweep(t *testing.T) {
	sharded := shardedSmallIndex(2)
	var buf bytes.Buffer
	if _, err := sharded.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		if _, err := ReadShardedIndexBytes(data[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded without error", cut, len(data))
		}
	}
}

func TestReadIndexRejectsWrongVersion(t *testing.T) {
	ix := smallIndex()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // version byte
	if _, err := ReadIndex(bytes.NewReader(data)); err == nil {
		t.Error("wrong version accepted")
	}
}

// shardedSmallIndex re-adds smallIndex's documents into a sharded index.
func shardedSmallIndex(shards int) *ShardedIndex {
	s := NewShardedIndex(shards)
	for _, d := range smallIndex().docs {
		s.Add(Document{URL: d.URL, Title: d.Title, Body: d.Body, Lang: d.Lang})
	}
	return s
}

// TestReadLegacyVersions: streams in the retired v2/v3 replay-on-load
// formats (and any other version but 4) fail with a typed *VersionError
// naming the version — never a panic, never a partial load — through every
// read entry point, however much of the old layout follows the header.
func TestReadLegacyVersions(t *testing.T) {
	var v4 bytes.Buffer
	if _, err := shardedSmallIndex(2).WriteTo(&v4); err != nil {
		t.Fatal(err)
	}
	withVersion := func(version uint32, tail []byte) []byte {
		b := binary.LittleEndian.AppendUint32([]byte(indexMagic), version)
		return append(b, tail...)
	}
	u32s := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	for _, tc := range []struct {
		name    string
		version uint32
		data    []byte
	}{
		{"v2 header only", 2, withVersion(2, nil)},
		{"v2 with one doc count", 2, withVersion(2, u32s(1))},
		{"v3 header only", 3, withVersion(3, nil)},
		{"v3 three shards", 3, withVersion(3, u32s(3, 0, 0, 0, 0, 0, 0, 0))},
		{"v3 huge counts", 3, withVersion(3, u32s(1<<31, 1<<31))},
		{"v3 header on a v4 body", 3, withVersion(3, v4.Bytes()[8:])},
		{"version 0", 0, withVersion(0, u32s(1))},
		{"future version", 5, withVersion(5, v4.Bytes()[8:])},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for name, read := range map[string]func([]byte) error{
				"ReadShardedIndexBytes": func(b []byte) error { _, err := ReadShardedIndexBytes(b); return err },
				"ReadShardedIndex":      func(b []byte) error { _, err := ReadShardedIndex(bytes.NewReader(b)); return err },
				"ReadIndex":             func(b []byte) error { _, err := ReadIndex(bytes.NewReader(b)); return err },
			} {
				err := read(tc.data)
				var ve *VersionError
				if !errors.As(err, &ve) || ve.Version != tc.version {
					t.Fatalf("%s: err = %v, want *VersionError{%d}", name, err, tc.version)
				}
				if want := fmt.Sprintf("unsupported index version %d; rebuild with cmd/snapshot", tc.version); !strings.Contains(err.Error(), want) {
					t.Errorf("%s: message %q lacks %q", name, err, want)
				}
			}
		})
	}
}
