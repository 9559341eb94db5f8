package ta

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// This file implements the zero-copy index artifact: the *built* joint
// index — packed candidate rows, the per-partner FastIndex grouping and
// bounds, and the engine's shard partition table — serialized into one versioned, CRC'd, page-aligned sidecar
// file. Opening an artifact maps the file (mmap on unix, a heap read
// elsewhere) and aliases every slice of every CandidateSet/FastIndex
// directly onto the mapped pages, so loading a built index costs a map
// plus one checksum pass instead of a rebuild, and the large float32
// arrays live outside the GC heap.
//
// Layout (header scalars big-endian; bulk sections native-endian, with
// a byte-order marker so a foreign-endian artifact reads as stale):
//
//	[0:8)    magic "EBSNIDX1"
//	[8:12)   format version
//	[12:16)  native byte-order marker 0x01020304
//	[16:24)  build fingerprint (see Fingerprint)
//	[24:28)  flags (none defined; any set bit reads as stale)
//	[28:32)  embedding dimension K
//	[32:36)  segment (shard) count
//	[36:40)  global partner count
//	[40:48)  total file size
//	[48:52)  CRC32-IEEE of the segment directory
//	[52:56)  CRC32-IEEE of header bytes [0:52)
//	[56:64)  reserved
//
// A segment directory follows: per segment its partner range [lo, hi),
// event and pair counts, then per section a file offset and CRC32.
// Sections are page-aligned and ordered eventData, partnerData, pairs,
// cross, order, partnerStart, maxCross; their byte lengths are derived
// from the counts, never read from the file.

const (
	artifactMagic      = "EBSNIDX1"
	artifactVersion    = 1
	artifactHeaderLen  = 64
	artifactAlign      = 4096 // section alignment: one page, mmap-friendly
	artifactEndianMark = 0x01020304

	artifactSections = 7 // eventData partnerData pairs cross order partnerStart maxCross

	maxArtifactSegments = 1 << 16
	maxArtifactDim      = 1 << 20
)

// Artifact error classes, matchable with errors.Is. Corrupt means the
// bytes fail structural validation (bad magic, checksum mismatch,
// truncation, impossible geometry); stale means the file is internally
// sound but does not describe the caller's index (format version skew,
// foreign byte order, fingerprint mismatch after a retrain). Both are
// recoverable by rebuilding the index and rewriting the artifact.
var (
	ErrArtifactCorrupt = errors.New("index artifact corrupt")
	ErrArtifactStale   = errors.New("index artifact stale")
)

// Candidate must stay two int32s: the artifact encodes the pair table
// as raw native-endian memory. This fails to compile if the size drifts.
var _ = [1]struct{}{}[unsafe.Sizeof(Candidate{})-8]

// mappedBytes tracks the bytes of artifact storage currently open
// (resident outside the GC heap on platforms with a real mmap).
var mappedBytes atomic.Int64

// MappedBytes returns the total bytes of index artifact storage
// currently open across the process — the backing of every Artifact
// not yet closed or collected. On unix this memory is mapped from the
// artifact files and lives outside the Go heap.
func MappedBytes() int64 { return mappedBytes.Load() }

// mapping is the backing storage of an open artifact: an OS file
// mapping on unix, a heap copy of the file elsewhere (see mapFile in
// the build-tagged mmap files). close is idempotent; a finalizer closes
// mappings whose Artifact was dropped without an explicit Close.
type mapping struct {
	data    []byte
	mmapped bool // data is an OS mapping, released by munmap
	closed  atomic.Bool
}

// close releases the backing storage once; later calls are no-ops.
func (m *mapping) close() error {
	if m.closed.Swap(true) {
		return nil
	}
	mappedBytes.Add(-int64(len(m.data)))
	err := m.release()
	m.data = nil
	return err
}

// Segment is one shard of a joint index: the partner range [Lo, Hi) it
// owns within the global partner space, its candidate set, and its
// FastIndex. WriteArtifact consumes segments; OpenArtifact yields them
// with every slice aliasing the artifact's backing storage.
type Segment struct {
	Lo, Hi int32
	Set    *CandidateSet
	Idx    *FastIndex
}

// Artifact is an open index artifact. Its segments' sets and indexes
// alias the backing storage directly — they are valid until the
// artifact is closed, and each set pins the artifact, so dropping every
// reference lets a finalizer release the mapping. Close releases it
// eagerly and must not race in-flight queries over the segments.
type Artifact struct {
	k           int
	nPartners   int
	fingerprint uint64
	segments    []Segment
	m           *mapping
}

// K returns the embedding dimension of the artifact's index.
func (a *Artifact) K() int { return a.k }

// Partners returns the global partner count the segments partition.
func (a *Artifact) Partners() int { return a.nPartners }

// Fingerprint returns the build fingerprint stored in the artifact.
func (a *Artifact) Fingerprint() uint64 { return a.fingerprint }

// Segments returns the shard segments in partner order. The segments
// alias the artifact's storage; see Artifact.
func (a *Artifact) Segments() []Segment { return a.segments }

// Size returns the artifact's backing size in bytes.
func (a *Artifact) Size() int64 { return int64(len(a.m.data)) }

// Close releases the backing storage. After Close every segment's
// slices are invalid (on unix the pages are unmapped); the caller must
// guarantee no query still reads them. Safe to call more than once.
func (a *Artifact) Close() error {
	runtime.SetFinalizer(a.m, nil)
	return a.m.close()
}

// fingerprintTable is the CRC64 polynomial used by Fingerprint.
var fingerprintTable = crc64.MakeTable(crc64.ECMA)

// Fingerprint hashes the inputs that determine a built joint index —
// scalar build parameters (dimension, pruning, shard count, counts)
// followed by the raw bytes of every embedding row — into the staleness
// check stored in an artifact: a retrain, a different dataset, or a
// different build configuration all change it. Row bytes are hashed in
// native endianness; that is safe because the artifact's byte-order
// marker already rejects foreign-endian files.
func Fingerprint(params []uint64, rowSets ...[][]float32) uint64 {
	h := crc64.New(fingerprintTable)
	var buf [8]byte
	for _, p := range params {
		binary.LittleEndian.PutUint64(buf[:], p)
		h.Write(buf[:])
	}
	for _, rows := range rowSets {
		for _, r := range rows {
			h.Write(f32Bytes(r))
		}
	}
	return h.Sum64()
}

// WriteArtifact serializes the built index segments into an artifact at
// path, atomically (temp file + fsync + rename, like the model
// snapshots): a crash mid-write never corrupts a previous artifact.
// The segments must partition [0, nPartners) contiguously. The
// fingerprint should come from Fingerprint over the build inputs —
// OpenArtifact refuses the file as stale unless the caller presents the
// same value.
func WriteArtifact(path string, fingerprint uint64, k, nPartners int, segs []Segment) error {
	if k < 1 || k > maxArtifactDim {
		return fmt.Errorf("ta: artifact dimension %d out of range", k)
	}
	if len(segs) == 0 || len(segs) > maxArtifactSegments {
		return fmt.Errorf("ta: artifact needs 1..%d segments, got %d", maxArtifactSegments, len(segs))
	}
	var lo int32
	for i, s := range segs {
		if s.Set == nil || s.Idx == nil || s.Idx.set != s.Set {
			return fmt.Errorf("ta: artifact segment %d: set/index mismatch", i)
		}
		if s.Lo != lo || s.Hi <= s.Lo {
			return fmt.Errorf("ta: artifact segments must partition the partner space contiguously")
		}
		if int(s.Hi-s.Lo) != len(s.Set.Partners) {
			return fmt.Errorf("ta: artifact segment %d: partner range %d..%d vs %d partner rows",
				i, s.Lo, s.Hi, len(s.Set.Partners))
		}
		np := len(s.Set.Pairs)
		if len(s.Set.Cross) != np || len(s.Idx.order) != np ||
			len(s.Idx.partnerStart) != len(s.Set.Partners)+1 ||
			len(s.Idx.maxCross) != len(s.Set.Partners) {
			return fmt.Errorf("ta: artifact segment %d: inconsistent index geometry", i)
		}
		s.Set.Pack()
		lo = s.Hi
	}
	if int(lo) != nPartners {
		return fmt.Errorf("ta: artifact segments cover %d partners, want %d", lo, nPartners)
	}

	// Lay out the directory and the page-aligned sections.
	type section struct {
		off  uint64
		data []byte
	}
	recSize := 16 + artifactSections*12
	dir := make([]byte, 0, len(segs)*recSize)
	var sections []section
	pos := uint64(artifactHeaderLen + len(segs)*recSize)
	for _, s := range segs {
		dir = binary.BigEndian.AppendUint32(dir, uint32(s.Lo))
		dir = binary.BigEndian.AppendUint32(dir, uint32(s.Hi))
		dir = binary.BigEndian.AppendUint32(dir, uint32(len(s.Set.Events)))
		dir = binary.BigEndian.AppendUint32(dir, uint32(len(s.Set.Pairs)))
		for _, b := range s.sectionViews() {
			pos = (pos + artifactAlign - 1) &^ (artifactAlign - 1)
			dir = binary.BigEndian.AppendUint64(dir, pos)
			dir = binary.BigEndian.AppendUint32(dir, crc32.ChecksumIEEE(b))
			sections = append(sections, section{off: pos, data: b})
			pos += uint64(len(b))
		}
	}
	total := pos

	hdr := make([]byte, artifactHeaderLen)
	copy(hdr, artifactMagic)
	binary.BigEndian.PutUint32(hdr[8:], artifactVersion)
	binary.NativeEndian.PutUint32(hdr[12:], artifactEndianMark)
	binary.BigEndian.PutUint64(hdr[16:], fingerprint)
	binary.BigEndian.PutUint32(hdr[28:], uint32(k))
	binary.BigEndian.PutUint32(hdr[32:], uint32(len(segs)))
	binary.BigEndian.PutUint32(hdr[36:], uint32(nPartners))
	binary.BigEndian.PutUint64(hdr[40:], total)
	binary.BigEndian.PutUint32(hdr[48:], crc32.ChecksumIEEE(dir))
	binary.BigEndian.PutUint32(hdr[52:], crc32.ChecksumIEEE(hdr[:52]))

	// Atomic save, mirroring core.SaveFile: temp in the same directory,
	// fsync, rename, best-effort directory sync.
	dirName := filepath.Dir(path)
	f, err := os.CreateTemp(dirName, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("ta: save artifact: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	written := uint64(0)
	emit := func(b []byte) {
		if err == nil {
			_, err = w.Write(b)
			written += uint64(len(b))
		}
	}
	emit(hdr)
	emit(dir)
	var zero [artifactAlign]byte
	for _, s := range sections {
		for written < s.off && err == nil {
			pad := s.off - written
			if pad > artifactAlign {
				pad = artifactAlign
			}
			emit(zero[:pad])
		}
		emit(s.data)
	}
	if err != nil {
		return fmt.Errorf("ta: save artifact: %w", err)
	}
	if err = w.Flush(); err != nil {
		return fmt.Errorf("ta: save artifact: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("ta: save artifact: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("ta: save artifact: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("ta: save artifact: %w", err)
	}
	if d, derr := os.Open(dirName); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// sectionViews returns the segment's section byte views in file order.
func (s Segment) sectionViews() [][]byte {
	return [][]byte{
		f32Bytes(s.Set.eventData),
		f32Bytes(s.Set.partnerData),
		candBytes(s.Set.Pairs),
		f32Bytes(s.Set.Cross),
		i32Bytes(s.Idx.order),
		i32Bytes(s.Idx.partnerStart),
		f32Bytes(s.Idx.maxCross),
	}
}

// OpenArtifact opens the artifact at path zero-copy: the file is mapped
// (or, on platforms without mmap, read into the heap once) and the
// returned segments' sets and indexes alias the mapped pages directly.
// Every section checksum is verified before the artifact is accepted —
// one sequential pass over the file, orders of magnitude cheaper than a
// rebuild. The caller's fingerprint (from Fingerprint over its current
// build inputs) must match the stored one, or the artifact is rejected
// as ErrArtifactStale; structural damage is ErrArtifactCorrupt; a
// missing file surfaces as the underlying fs.ErrNotExist. Callers treat
// all three the same way: rebuild, and rewrite the artifact.
func OpenArtifact(path string, fingerprint uint64) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < artifactHeaderLen {
		return nil, fmt.Errorf("ta: %s: %d-byte file, truncated header: %w", path, size, ErrArtifactCorrupt)
	}
	m, err := mapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("ta: map %s: %w", path, err)
	}
	a, err := decodeArtifact(m, fingerprint)
	if err != nil {
		m.release()
		return nil, fmt.Errorf("ta: %s: %w", path, err)
	}
	mappedBytes.Add(size)
	runtime.SetFinalizer(m, func(m *mapping) { m.close() })
	return a, nil
}

// decodeArtifact validates the mapped bytes and builds the segments,
// aliasing every slice onto the mapping. It performs the full check
// sequence: magic → version → byte order → header CRC → size →
// fingerprint → directory CRC → per-section geometry, alignment and
// CRC → index-content invariants.
func decodeArtifact(m *mapping, want uint64) (*Artifact, error) {
	b := m.data
	if len(b) < artifactHeaderLen {
		return nil, fmt.Errorf("truncated header: %w", ErrArtifactCorrupt)
	}
	if string(b[:8]) != artifactMagic {
		return nil, fmt.Errorf("bad magic: %w", ErrArtifactCorrupt)
	}
	if v := binary.BigEndian.Uint32(b[8:]); v != artifactVersion {
		return nil, fmt.Errorf("format version %d, want %d: %w", v, artifactVersion, ErrArtifactStale)
	}
	if e := binary.NativeEndian.Uint32(b[12:]); e != artifactEndianMark {
		return nil, fmt.Errorf("foreign byte order: %w", ErrArtifactStale)
	}
	if crc32.ChecksumIEEE(b[:52]) != binary.BigEndian.Uint32(b[52:56]) {
		return nil, fmt.Errorf("header checksum mismatch: %w", ErrArtifactCorrupt)
	}
	if total := binary.BigEndian.Uint64(b[40:]); total != uint64(len(b)) {
		return nil, fmt.Errorf("file is %d bytes, header says %d: %w", len(b), total, ErrArtifactCorrupt)
	}
	fp := binary.BigEndian.Uint64(b[16:])
	if fp != want {
		return nil, fmt.Errorf("fingerprint %016x, current build inputs give %016x: %w", fp, want, ErrArtifactStale)
	}
	if flags := binary.BigEndian.Uint32(b[24:]); flags != 0 {
		return nil, fmt.Errorf("unknown flags %#x: %w", flags, ErrArtifactStale)
	}
	k := int(binary.BigEndian.Uint32(b[28:]))
	nseg := int(binary.BigEndian.Uint32(b[32:]))
	nPartners := int(binary.BigEndian.Uint32(b[36:]))
	if k < 1 || k > maxArtifactDim || nseg < 1 || nseg > maxArtifactSegments || nPartners < nseg {
		return nil, fmt.Errorf("impossible geometry (k=%d segments=%d partners=%d): %w", k, nseg, nPartners, ErrArtifactCorrupt)
	}
	recSize := 16 + artifactSections*12
	dirEnd := artifactHeaderLen + nseg*recSize
	if dirEnd > len(b) {
		return nil, fmt.Errorf("truncated directory: %w", ErrArtifactCorrupt)
	}
	dir := b[artifactHeaderLen:dirEnd]
	if crc32.ChecksumIEEE(dir) != binary.BigEndian.Uint32(b[48:52]) {
		return nil, fmt.Errorf("directory checksum mismatch: %w", ErrArtifactCorrupt)
	}

	a := &Artifact{k: k, nPartners: nPartners, fingerprint: fp, m: m}
	prevHi := int64(0)
	for si := 0; si < nseg; si++ {
		rec := dir[si*recSize : (si+1)*recSize]
		lo := int64(binary.BigEndian.Uint32(rec[0:]))
		hi := int64(binary.BigEndian.Uint32(rec[4:]))
		ne := int64(binary.BigEndian.Uint32(rec[8:]))
		np := int64(binary.BigEndian.Uint32(rec[12:]))
		if lo != prevHi || hi <= lo || hi > int64(nPartners) {
			return nil, fmt.Errorf("segment %d: broken partner partition: %w", si, ErrArtifactCorrupt)
		}
		nsp := hi - lo
		sizes := []int64{ne * int64(k) * 4, nsp * int64(k) * 4, np * 8, np * 4, np * 4, (nsp + 1) * 4, nsp * 4}
		secs := make([][]byte, len(sizes))
		for j, sz := range sizes {
			off := int64(binary.BigEndian.Uint64(rec[16+j*12:]))
			crc := binary.BigEndian.Uint32(rec[16+j*12+8:])
			if off%8 != 0 || off < int64(dirEnd) || sz < 0 || off+sz > int64(len(b)) {
				return nil, fmt.Errorf("segment %d section %d: out of bounds: %w", si, j, ErrArtifactCorrupt)
			}
			sec := b[off : off+sz : off+sz]
			if crc32.ChecksumIEEE(sec) != crc {
				return nil, fmt.Errorf("segment %d section %d: checksum mismatch: %w", si, j, ErrArtifactCorrupt)
			}
			secs[j] = sec
		}

		eventData := bytesF32(secs[0])
		partnerData := bytesF32(secs[1])
		pairs := bytesCand(secs[2])
		cross := bytesF32(secs[3])
		order := bytesI32(secs[4])
		partnerStart := bytesI32(secs[5])
		maxCross := bytesF32(secs[6])
		for _, p := range pairs {
			if int64(p.Event) >= ne || p.Event < 0 || int64(p.Partner) >= nsp || p.Partner < 0 {
				return nil, fmt.Errorf("segment %d: pair out of range: %w", si, ErrArtifactCorrupt)
			}
		}
		for _, o := range order {
			if int64(o) >= np || o < 0 {
				return nil, fmt.Errorf("segment %d: order entry out of range: %w", si, ErrArtifactCorrupt)
			}
		}
		if partnerStart[0] != 0 || int64(partnerStart[nsp]) != np {
			return nil, fmt.Errorf("segment %d: broken partner grouping: %w", si, ErrArtifactCorrupt)
		}
		for u := int64(0); u < nsp; u++ {
			if partnerStart[u] > partnerStart[u+1] {
				return nil, fmt.Errorf("segment %d: broken partner grouping: %w", si, ErrArtifactCorrupt)
			}
		}

		set := &CandidateSet{
			K:           k,
			Events:      sliceRows(eventData, int(ne), k),
			Partners:    sliceRows(partnerData, int(nsp), k),
			Pairs:       pairs,
			Cross:       cross,
			eventData:   eventData,
			partnerData: partnerData,
			owner:       a,
		}
		idx := &FastIndex{set: set, order: order, partnerStart: partnerStart, maxCross: maxCross}
		a.segments = append(a.segments, Segment{Lo: int32(lo), Hi: int32(hi), Set: set, Idx: idx})
		prevHi = hi
	}
	if prevHi != int64(nPartners) {
		return nil, fmt.Errorf("segments cover %d partners, header says %d: %w", prevHi, nPartners, ErrArtifactCorrupt)
	}
	return a, nil
}

// sliceRows re-creates the per-row slice headers over a packed
// row-major array, capacity-clamped so an append can never scribble
// into the neighbouring row (or the mapped page after it).
func sliceRows(data []float32, n, k int) [][]float32 {
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = data[i*k : (i+1)*k : (i+1)*k]
	}
	return rows
}

// The casts below reinterpret typed slices as raw native-endian bytes
// and back. Sections are written page-aligned and the heap fallback
// allocates word-aligned, so every element type's alignment (≤ 8) is
// satisfied.

// f32Bytes returns the raw bytes of a float32 slice (nil for empty).
func f32Bytes(s []float32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

// i32Bytes returns the raw bytes of an int32 slice (nil for empty).
func i32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

// candBytes returns the raw bytes of a Candidate slice (nil for empty).
func candBytes(s []Candidate) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

// bytesF32 views raw bytes as float32s (nil for empty).
func bytesF32(b []byte) []float32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// bytesI32 views raw bytes as int32s (nil for empty).
func bytesI32(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// bytesCand views raw bytes as Candidates (nil for empty).
func bytesCand(b []byte) []Candidate {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*Candidate)(unsafe.Pointer(&b[0])), len(b)/8)
}
