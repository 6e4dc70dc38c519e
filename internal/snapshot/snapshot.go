// Package snapshot implements the TSNP v1 bundle: one file carrying every
// heavy serving artifact — the sharded search index (TIDX v3), the frozen
// gazetteer (TGAZ v1) and both trained snippet classifiers (TCLF v1) — so a
// fleet of replicas loads one prebuilt artifact instead of performing N full
// world rebuilds at boot. Layout (little-endian):
//
//	magic "TSNP" | version u32
//	headerLen u32 | header bytes | headerCRC u32 (IEEE CRC-32 of the header)
//	section payloads, sequentially, in section-table order
//
// The header holds the manifest (seed, scale, classifier kind, shard count,
// component sizes, build metadata) followed by the section table: one entry
// per section with its name, payload length and payload CRC-32. Payloads are
// the unmodified streams of the component formats, so each section's own
// versioning and integrity checks still apply after the CRC gate.
//
// Reads are strictly sequential — manifest, table, then each payload in file
// order — so loading is IO-bound streaming, never seek-bound. Every length
// and count is bounds-checked and every byte of the file is covered by a
// checksum (header by headerCRC, payloads by their table entries), so a
// truncated or bit-flipped file fails with a typed error — *FormatError or
// *ChecksumError — before any component parser sees corrupt bytes.
package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/classify"
	"repro/internal/gazetteer"
	"repro/internal/search"
)

const (
	// Magic identifies a TSNP stream.
	Magic = "TSNP"
	// Version is the bundle format version this package writes.
	Version = 1

	// maxHeaderLen bounds the manifest + section table; real headers are a
	// few hundred bytes.
	maxHeaderLen = 1 << 20
	// maxSectionLen bounds one section payload; far above any real bundle.
	maxSectionLen = 1 << 40
	// maxSections bounds the section table.
	maxSections = 64
)

// Canonical section names, in file order.
const (
	SectionSearch    = "search"    // TIDX v4 sharded index stream
	SectionGazetteer = "gazetteer" // TGAZ v1 frozen gazetteer stream
	SectionSVM       = "svm"       // TCLF v1 linear SVM stream
	SectionBayes     = "bayes"     // TCLF v1 Naive Bayes stream
)

// FormatError reports a structurally invalid TSNP stream: bad magic,
// unsupported version, truncation, or an out-of-bounds length or count.
type FormatError struct {
	// Reason says what is wrong.
	Reason string
	// Err is the underlying cause (often an io error), when there is one.
	Err error
}

func (e *FormatError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("snapshot: %s: %v", e.Reason, e.Err)
	}
	return "snapshot: " + e.Reason
}

func (e *FormatError) Unwrap() error { return e.Err }

// ChecksumError reports a region whose stored CRC-32 does not match its
// bytes — the typed signal for bit rot or a torn write.
type ChecksumError struct {
	// Region is "header" or the section name.
	Region string
	// Want is the stored checksum, Got the one computed from the bytes.
	Want, Got uint32
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("snapshot: %s checksum mismatch: stored %08x, computed %08x", e.Region, e.Want, e.Got)
}

// Manifest describes what a bundle was built from, so a loader can refuse a
// file that does not match its configuration instead of serving silently
// different results.
type Manifest struct {
	// Seed, Scale and Classifier are the build configuration of the
	// service the bundle was written from (repro.New's WithSeed /
	// WithScale / WithClassifier values).
	Seed       int64
	Scale      string
	Classifier string
	// SearchShards is the shard count baked into the index stream; results
	// are identical at any count, but the manifest records it so a loader
	// pinned to a specific count can refuse.
	SearchShards int
	// Docs and Locations are the component sizes, for inspection and
	// cheap post-load sanity checks.
	Docs      int
	Locations int
	// CreatedAtUnix and BuildMillis are build metadata: when the bundle
	// was written and how long the from-scratch build that produced it
	// took.
	CreatedAtUnix int64
	BuildMillis   int64
	// Tool identifies the writer (e.g. "cmd/snapshot").
	Tool string
}

// SectionInfo is one entry of the section table.
type SectionInfo struct {
	// Name is the section's canonical name.
	Name string
	// Length is the payload byte count.
	Length int64
	// CRC is the payload's IEEE CRC-32.
	CRC uint32
}

// Bundle is the in-memory form of a TSNP snapshot: the manifest plus every
// serving component, decoded and ready to assemble into a service.
type Bundle struct {
	Manifest  Manifest
	Index     *search.ShardedIndex
	Gazetteer *gazetteer.Frozen
	SVM       classify.Classifier
	Bayes     classify.Classifier
}

// headerWriter accumulates the header bytes (manifest + section table).
type headerWriter struct {
	buf bytes.Buffer
}

func (hw *headerWriter) u32(v uint32) { _ = binary.Write(&hw.buf, binary.LittleEndian, v) }
func (hw *headerWriter) i64(v int64)  { _ = binary.Write(&hw.buf, binary.LittleEndian, v) }
func (hw *headerWriter) str(s string) {
	hw.u32(uint32(len(s)))
	hw.buf.WriteString(s)
}

// WriteTo serialises the bundle as a TSNP v1 stream: each component is
// encoded, the header (manifest + checksummed section table) is emitted, then
// the payloads follow sequentially. It returns the byte count written.
func (b *Bundle) WriteTo(w io.Writer) (int64, error) {
	type section struct {
		name   string
		encode func(io.Writer) (int64, error)
	}
	sections := []section{
		{SectionSearch, func(w io.Writer) (int64, error) { return b.Index.WriteTo(w) }},
		{SectionGazetteer, func(w io.Writer) (int64, error) { return b.Gazetteer.WriteTo(w) }},
		{SectionSVM, func(w io.Writer) (int64, error) { return classify.WriteClassifier(w, b.SVM) }},
		{SectionBayes, func(w io.Writer) (int64, error) { return classify.WriteClassifier(w, b.Bayes) }},
	}

	// Encode every payload first: the section table needs each length and
	// checksum before the first payload byte can be written.
	payloads := make([]*bytes.Buffer, len(sections))
	infos := make([]SectionInfo, len(sections))
	for i, s := range sections {
		payloads[i] = &bytes.Buffer{}
		if _, err := s.encode(payloads[i]); err != nil {
			return 0, fmt.Errorf("snapshot: encoding %s section: %w", s.name, err)
		}
		infos[i] = SectionInfo{
			Name:   s.name,
			Length: int64(payloads[i].Len()),
			CRC:    crc32.ChecksumIEEE(payloads[i].Bytes()),
		}
	}

	var hw headerWriter
	m := b.Manifest
	hw.i64(m.Seed)
	hw.str(m.Scale)
	hw.str(m.Classifier)
	hw.u32(uint32(m.SearchShards))
	hw.u32(uint32(m.Docs))
	hw.u32(uint32(m.Locations))
	hw.i64(m.CreatedAtUnix)
	hw.i64(m.BuildMillis)
	hw.str(m.Tool)
	hw.u32(uint32(len(infos)))
	for _, info := range infos {
		hw.str(info.Name)
		hw.i64(info.Length)
		hw.u32(info.CRC)
	}
	header := hw.buf.Bytes()

	bw := bufio.NewWriter(w)
	var n int64
	write := func(p []byte) error {
		wn, err := bw.Write(p)
		n += int64(wn)
		return err
	}
	u32 := func(v uint32) error {
		var tmp [4]byte
		binary.LittleEndian.PutUint32(tmp[:], v)
		return write(tmp[:])
	}
	err := func() error {
		if err := write([]byte(Magic)); err != nil {
			return err
		}
		if err := u32(Version); err != nil {
			return err
		}
		if err := u32(uint32(len(header))); err != nil {
			return err
		}
		if err := write(header); err != nil {
			return err
		}
		if err := u32(crc32.ChecksumIEEE(header)); err != nil {
			return err
		}
		for _, p := range payloads {
			if err := write(p.Bytes()); err != nil {
				return err
			}
		}
		return nil
	}()
	if err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// WriteFile writes the bundle to path atomically: a same-directory temp file
// renamed into place, so a crashed build never leaves a half-written bundle
// under the serving path.
func (b *Bundle) WriteFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tsnp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := b.WriteTo(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// headerReader decodes the checksummed header bytes with bounds checks.
type headerReader struct {
	b   []byte
	off int
}

func (hr *headerReader) u32() (uint32, error) {
	if hr.off+4 > len(hr.b) {
		return 0, &FormatError{Reason: "header truncated"}
	}
	v := binary.LittleEndian.Uint32(hr.b[hr.off:])
	hr.off += 4
	return v, nil
}

func (hr *headerReader) i64() (int64, error) {
	if hr.off+8 > len(hr.b) {
		return 0, &FormatError{Reason: "header truncated"}
	}
	v := int64(binary.LittleEndian.Uint64(hr.b[hr.off:]))
	hr.off += 8
	return v, nil
}

func (hr *headerReader) str() (string, error) {
	n, err := hr.u32()
	if err != nil {
		return "", err
	}
	if int(n) > len(hr.b)-hr.off {
		return "", &FormatError{Reason: fmt.Sprintf("header string of %d bytes overruns the header", n)}
	}
	s := string(hr.b[hr.off : hr.off+int(n)])
	hr.off += int(n)
	return s, nil
}

// readHeader reads and verifies magic, version and the checksummed header,
// returning the parsed manifest and section table.
func readHeader(br *bufio.Reader) (Manifest, []SectionInfo, error) {
	var m Manifest
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return m, nil, &FormatError{Reason: "reading magic", Err: err}
	}
	if string(magic) != Magic {
		return m, nil, &FormatError{Reason: fmt.Sprintf("bad magic %q", magic)}
	}
	var fixed [8]byte
	if _, err := io.ReadFull(br, fixed[:]); err != nil {
		return m, nil, &FormatError{Reason: "reading header frame", Err: err}
	}
	version := binary.LittleEndian.Uint32(fixed[:4])
	if version != Version {
		return m, nil, &FormatError{Reason: fmt.Sprintf("unsupported bundle version %d", version)}
	}
	headerLen := binary.LittleEndian.Uint32(fixed[4:])
	if headerLen > maxHeaderLen {
		return m, nil, &FormatError{Reason: fmt.Sprintf("header of %d bytes exceeds the %d limit", headerLen, maxHeaderLen)}
	}
	header := make([]byte, headerLen)
	if _, err := io.ReadFull(br, header); err != nil {
		return m, nil, &FormatError{Reason: "reading header", Err: err}
	}
	var storedCRC [4]byte
	if _, err := io.ReadFull(br, storedCRC[:]); err != nil {
		return m, nil, &FormatError{Reason: "reading header checksum", Err: err}
	}
	want := binary.LittleEndian.Uint32(storedCRC[:])
	if got := crc32.ChecksumIEEE(header); got != want {
		return m, nil, &ChecksumError{Region: "header", Want: want, Got: got}
	}

	hr := &headerReader{b: header}
	var err error
	var count uint32
	if m.Seed, err = hr.i64(); err != nil {
		return m, nil, err
	}
	if m.Scale, err = hr.str(); err != nil {
		return m, nil, err
	}
	if m.Classifier, err = hr.str(); err != nil {
		return m, nil, err
	}
	for _, dst := range []*int{&m.SearchShards, &m.Docs, &m.Locations} {
		u, uerr := hr.u32()
		if uerr != nil {
			return m, nil, uerr
		}
		*dst = int(u)
	}
	if m.CreatedAtUnix, err = hr.i64(); err != nil {
		return m, nil, err
	}
	if m.BuildMillis, err = hr.i64(); err != nil {
		return m, nil, err
	}
	if m.Tool, err = hr.str(); err != nil {
		return m, nil, err
	}
	if count, err = hr.u32(); err != nil {
		return m, nil, err
	}
	if count > maxSections {
		return m, nil, &FormatError{Reason: fmt.Sprintf("section table of %d entries exceeds the %d limit", count, maxSections)}
	}
	infos := make([]SectionInfo, count)
	for i := range infos {
		if infos[i].Name, err = hr.str(); err != nil {
			return m, nil, err
		}
		if infos[i].Length, err = hr.i64(); err != nil {
			return m, nil, err
		}
		if infos[i].Length < 0 || infos[i].Length > maxSectionLen {
			return m, nil, &FormatError{Reason: fmt.Sprintf("section %q length %d out of bounds", infos[i].Name, infos[i].Length)}
		}
		var crc uint32
		if crc, err = hr.u32(); err != nil {
			return m, nil, err
		}
		infos[i].CRC = crc
	}
	if hr.off != len(header) {
		return m, nil, &FormatError{Reason: fmt.Sprintf("%d trailing bytes in header", len(header)-hr.off)}
	}
	return m, infos, nil
}

// Inspect reads only the manifest and section table — the cheap metadata
// view behind `snapshot inspect`. Payload checksums are NOT verified; use
// Read (or `snapshot verify`) for that.
func Inspect(r io.Reader) (Manifest, []SectionInfo, error) {
	return readHeader(bufio.NewReader(r))
}

// readSection streams one payload into memory, growing with the bytes that
// actually arrive (a corrupt length cannot force a huge allocation), and
// verifies its checksum before handing the bytes to a component parser.
func readSection(br *bufio.Reader, info SectionInfo) ([]byte, error) {
	var buf bytes.Buffer
	// Pre-size to skip growth copies on big sections, clamped so a crafted
	// header claiming an absurd length cannot allocate ahead of the data
	// actually present (the copy below fails at real EOF either way).
	buf.Grow(int(min(info.Length, 64<<20)))
	if n, err := io.CopyN(&buf, br, info.Length); err != nil {
		return nil, &FormatError{Reason: fmt.Sprintf("section %q truncated at %d of %d bytes", info.Name, n, info.Length), Err: err}
	}
	if got := crc32.ChecksumIEEE(buf.Bytes()); got != info.CRC {
		return nil, &ChecksumError{Region: info.Name, Want: info.CRC, Got: got}
	}
	return buf.Bytes(), nil
}

// Read loads a complete bundle: header, then every section sequentially,
// each checksum-verified before its component parser runs. Unknown section
// names are rejected (v1 defines exactly the four canonical sections), as is
// a bundle missing any of them.
func Read(r io.Reader) (*Bundle, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	m, infos, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	b := &Bundle{Manifest: m}
	seen := map[string]bool{}
	for _, info := range infos {
		if seen[info.Name] {
			return nil, &FormatError{Reason: fmt.Sprintf("duplicate section %q", info.Name)}
		}
		seen[info.Name] = true
		payload, err := readSection(br, info)
		if err != nil {
			return nil, err
		}
		switch info.Name {
		case SectionSearch:
			if b.Index, err = search.ReadShardedIndexBytes(payload); err != nil {
				return nil, &FormatError{Reason: "search section", Err: err}
			}
		case SectionGazetteer:
			if b.Gazetteer, err = gazetteer.ReadFrozen(bytes.NewReader(payload)); err != nil {
				return nil, &FormatError{Reason: "gazetteer section", Err: err}
			}
		case SectionSVM:
			if b.SVM, err = classify.ReadClassifier(bytes.NewReader(payload)); err != nil {
				return nil, &FormatError{Reason: "svm section", Err: err}
			}
		case SectionBayes:
			if b.Bayes, err = classify.ReadClassifier(bytes.NewReader(payload)); err != nil {
				return nil, &FormatError{Reason: "bayes section", Err: err}
			}
		default:
			return nil, &FormatError{Reason: fmt.Sprintf("unknown section %q", info.Name)}
		}
	}
	for _, name := range []string{SectionSearch, SectionGazetteer, SectionSVM, SectionBayes} {
		if !seen[name] {
			return nil, &FormatError{Reason: fmt.Sprintf("bundle is missing the %q section", name)}
		}
	}
	if got := b.Index.Len(); got != m.Docs {
		return nil, &FormatError{Reason: fmt.Sprintf("manifest says %d docs, index has %d", m.Docs, got)}
	}
	if got := b.Gazetteer.Len(); got != m.Locations {
		return nil, &FormatError{Reason: fmt.Sprintf("manifest says %d locations, gazetteer has %d", m.Locations, got)}
	}
	return b, nil
}

// ReadFile loads the bundle at path.
func ReadFile(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
