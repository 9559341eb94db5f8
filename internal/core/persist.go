package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"ebsn/internal/vecmath"
)

// Snapshot is the serializable state of a trained model: the learned
// embeddings plus the config they were trained with. Sampler state and
// graphs are rebuildable and deliberately excluded — a snapshot is what a
// recommendation service loads.
type Snapshot struct {
	Cfg       Config
	Steps     int64
	Users     *Matrix
	Events    *Matrix
	Locations *Matrix
	Times     *Matrix
	Words     *Matrix
}

// Snapshot file format (version 1):
//
//	[0:8)   magic "EBSNSNAP"
//	[8:12)  format version, big-endian uint32
//	[12:20) payload length, big-endian uint64
//	[20:24) CRC32 (IEEE) of the payload
//	[24:)   gob-encoded Snapshot
//
// Files written before the header existed are bare gob streams;
// ReadSnapshot still accepts them (they cannot start with the magic:
// a gob stream's first byte is a small type-definition length).
const (
	snapshotMagic   = "EBSNSNAP"
	snapshotVersion = 1
	headerLen       = len(snapshotMagic) + 4 + 8 + 4
)

// maxSnapshotPayload bounds how much ReadSnapshot will buffer from a
// declared payload length, so a corrupt header cannot drive an
// arbitrarily large allocation.
const maxSnapshotPayload = 16 << 30

// Typed failure classes for snapshot loading, matchable with errors.Is.
var (
	// ErrSnapshotCorrupt marks truncated, bit-flipped or otherwise
	// undecodable snapshot input.
	ErrSnapshotCorrupt = errors.New("snapshot corrupt")
	// ErrSnapshotVersion marks a valid header whose format version this
	// build does not understand.
	ErrSnapshotVersion = errors.New("unsupported snapshot version")
)

// Test seams for crash injection: SaveFile writes through encodeWriter
// and renames with renameFile, so tests can force short writes and
// failed renames without touching the filesystem layer.
var (
	encodeWriter = func(w io.Writer) io.Writer { return w }
	renameFile   = os.Rename
)

// Snapshot captures the model's current embeddings (deep copies).
func (m *Model) Snapshot() *Snapshot {
	return &Snapshot{
		Cfg:       m.Cfg,
		Steps:     m.steps,
		Users:     m.Users.Clone(),
		Events:    m.Events.Clone(),
		Locations: m.Locations.Clone(),
		Times:     m.Times.Clone(),
		Words:     m.Words.Clone(),
	}
}

// Encode writes the snapshot in the versioned format: header, format
// version, payload length and CRC32 checksum, then the gob payload.
func (s *Snapshot) Encode(w io.Writer) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(s); err != nil {
		return fmt.Errorf("core: encode snapshot: %w", err)
	}
	header := make([]byte, headerLen)
	copy(header, snapshotMagic)
	binary.BigEndian.PutUint32(header[8:], snapshotVersion)
	binary.BigEndian.PutUint64(header[12:], uint64(payload.Len()))
	binary.BigEndian.PutUint32(header[20:], crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("core: write snapshot header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("core: write snapshot payload: %w", err)
	}
	return nil
}

// ReadSnapshot decodes a snapshot written by Encode and validates its
// checksum and shape. Input without the versioned header (bare gob
// included) is refused before any decode. Truncated, bit-flipped and
// wrong-magic input fails with an error wrapping ErrSnapshotCorrupt;
// a future format version fails with ErrSnapshotVersion.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	head := make([]byte, len(snapshotMagic))
	n, err := io.ReadFull(r, head)
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, fmt.Errorf("core: read snapshot: %w", err)
	}
	if n < len(snapshotMagic) || string(head) != snapshotMagic {
		return nil, fmt.Errorf("core: snapshot lacks the %q header: %w", snapshotMagic, ErrSnapshotCorrupt)
	}

	rest := make([]byte, headerLen-len(snapshotMagic))
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, fmt.Errorf("core: snapshot header truncated: %w", ErrSnapshotCorrupt)
	}
	version := binary.BigEndian.Uint32(rest[0:4])
	if version != snapshotVersion {
		return nil, fmt.Errorf("core: snapshot format version %d, this build reads %d: %w",
			version, snapshotVersion, ErrSnapshotVersion)
	}
	length := binary.BigEndian.Uint64(rest[4:12])
	wantCRC := binary.BigEndian.Uint32(rest[12:16])
	if length > maxSnapshotPayload {
		return nil, fmt.Errorf("core: snapshot declares %d-byte payload: %w", length, ErrSnapshotCorrupt)
	}
	payload := make([]byte, int(length))
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("core: snapshot payload truncated: %w", ErrSnapshotCorrupt)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("core: snapshot checksum mismatch (stored %08x, computed %08x): %w",
			wantCRC, got, ErrSnapshotCorrupt)
	}
	return decodeSnapshotPayload(bytes.NewReader(payload))
}

// decodeSnapshotPayload gob-decodes a snapshot and validates its matrix
// shapes.
func decodeSnapshotPayload(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %v: %w", err, ErrSnapshotCorrupt)
	}
	for name, mat := range map[string]*Matrix{
		"users": s.Users, "events": s.Events, "locations": s.Locations,
		"times": s.Times, "words": s.Words,
	} {
		if mat == nil {
			return nil, fmt.Errorf("core: snapshot missing %s matrix: %w", name, ErrSnapshotCorrupt)
		}
		if mat.K != s.Cfg.K || len(mat.Data) != mat.N*mat.K {
			return nil, fmt.Errorf("core: snapshot %s matrix malformed: N=%d K=%d len=%d (cfg K=%d): %w",
				name, mat.N, mat.K, len(mat.Data), s.Cfg.K, ErrSnapshotCorrupt)
		}
	}
	return &s, nil
}

// SaveFile writes the snapshot to path atomically: the bytes go to a
// temp file in the target directory, are fsynced, and only then renamed
// over path. A crash or error at any point leaves either the old file
// or no file at path — never a partial snapshot.
func (s *Snapshot) SaveFile(path string) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("core: save snapshot: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = s.Encode(encodeWriter(f)); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("core: sync snapshot: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("core: close snapshot: %w", err)
	}
	if err = renameFile(tmp, path); err != nil {
		return fmt.Errorf("core: commit snapshot: %w", err)
	}
	// Persist the rename itself. Directory fsync is best-effort: some
	// filesystems reject it, and the data file is already durable.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// LoadSnapshotFile reads a snapshot from path.
func LoadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load snapshot: %w", err)
	}
	defer f.Close()
	s, err := ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("core: load snapshot %s: %w", path, err)
	}
	return s, nil
}

// ScoreUserEvent mirrors Model.ScoreUserEvent for loaded snapshots.
func (s *Snapshot) ScoreUserEvent(u, x int32) float32 {
	return vecmath.Dot(s.Users.Row(u), s.Events.Row(x))
}

// ScoreTriple mirrors Model.ScoreTriple for loaded snapshots.
func (s *Snapshot) ScoreTriple(u, partner, x int32) float32 {
	uv, pv, xv := s.Users.Row(u), s.Users.Row(partner), s.Events.Row(x)
	return vecmath.Dot(uv, xv) + vecmath.Dot(pv, xv) + vecmath.Dot(uv, pv)
}

// RestoreSnapshot copies saved embeddings into a freshly constructed
// model, replacing its random initialization, and resumes the step
// counter (and with it the learning-rate decay schedule) from
// Snapshot.Steps. The snapshot's matrix shapes must match the model's
// graphs.
func (m *Model) RestoreSnapshot(s *Snapshot) error {
	for _, pair := range []struct {
		name string
		dst  *Matrix
		src  *Matrix
	}{
		{"users", m.Users, s.Users},
		{"events", m.Events, s.Events},
		{"locations", m.Locations, s.Locations},
		{"times", m.Times, s.Times},
		{"words", m.Words, s.Words},
	} {
		if pair.src == nil || pair.src.N != pair.dst.N || pair.src.K != pair.dst.K {
			return fmt.Errorf("core: snapshot %s matrix shape mismatch", pair.name)
		}
		copy(pair.dst.Data, pair.src.Data)
	}
	m.steps = s.Steps
	return nil
}
