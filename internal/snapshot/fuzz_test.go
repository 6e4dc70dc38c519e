package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/search"
)

// FuzzReadSnapshot: arbitrary bytes must never panic Read — every rejection
// is a typed *FormatError or *ChecksumError, and anything accepted must be a
// usable bundle that re-serialises cleanly. Seeds cover the valid stream,
// truncations at the header/table/payload boundaries, single-byte flips and
// a well-sealed bundle around a retired v3 search index;
// the checked-in corpus under testdata/fuzz/FuzzReadSnapshot replays past
// crashers by name in CI.
func FuzzReadSnapshot(f *testing.F) {
	valid := tinyBundleBytes()
	f.Add(valid)
	for _, cut := range []int{0, 3, 4, 8, 12, len(valid) / 4, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	for _, off := range []int{0, 5, 9, 13, 40, len(valid) / 3, len(valid) - 2} {
		mutated := append([]byte(nil), valid...)
		mutated[off] ^= 0xFF
		f.Add(mutated)
	}
	f.Add([]byte("TSNP"))
	f.Add(append(append([]byte(nil), valid...), 0xAA)) // trailing garbage
	f.Add(withSearchVersion(valid, 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Read(bytes.NewReader(data))
		if err != nil {
			var fe *FormatError
			var ce *ChecksumError
			if !errors.As(err, &fe) && !errors.As(err, &ce) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		// Accepted bundles must hold working components and re-serialise.
		_ = b.Index.Search("museum", 3)
		_ = b.Gazetteer.Geocode("Paris")
		if _, err := b.WriteTo(&bytes.Buffer{}); err != nil {
			t.Fatalf("accepted bundle failed to re-serialise: %v", err)
		}
	})
}

// withSearchVersion returns a copy of a valid bundle whose search section
// claims the given TIDX format version, with the section and header
// checksums re-sealed: a well-formed bundle around an index the reader must
// refuse on its version alone.
func withSearchVersion(bundle []byte, version uint32) []byte {
	b := bytes.Clone(bundle)
	hdrLen := int(binary.LittleEndian.Uint32(b[8:12]))
	header := b[12 : 12+hdrLen]
	payload := 12 + hdrLen + 4 // the search payload comes first
	binary.LittleEndian.PutUint32(b[payload+4:], version)
	entry := binary.LittleEndian.AppendUint32(nil, uint32(len(SectionSearch)))
	entry = append(entry, SectionSearch...)
	at := bytes.Index(header, entry) + len(entry) // then length i64, crc u32
	n := int(binary.LittleEndian.Uint64(header[at:]))
	binary.LittleEndian.PutUint32(header[at+8:], crc32.ChecksumIEEE(b[payload:payload+n]))
	binary.LittleEndian.PutUint32(b[12+hdrLen:], crc32.ChecksumIEEE(header))
	return b
}

// TestReadRejectsLegacyIndexVersion: a bundle whose checksums hold but whose
// search section is a retired v2/v3 index fails as a *FormatError wrapping
// the index reader's typed *search.VersionError.
func TestReadRejectsLegacyIndexVersion(t *testing.T) {
	for _, version := range []uint32{2, 3} {
		_, err := Read(bytes.NewReader(withSearchVersion(tinyBundleBytes(), version)))
		var fe *FormatError
		var ve *search.VersionError
		if !errors.As(err, &fe) || !errors.As(err, &ve) || ve.Version != version {
			t.Errorf("v%d search section: err = %v, want *FormatError wrapping *search.VersionError", version, err)
		}
	}
}
