package ebsn

import (
	"fmt"

	"ebsn/internal/engine"
	"ebsn/internal/ta"
)

// Artifact error classes, re-exported from internal/ta for errors.Is
// matching at the facade: Corrupt means the file failed structural
// validation (checksums, truncation, geometry), Stale means it is sound
// but was built from different inputs — a retrain, a different dataset,
// or a different pruneK/shard configuration. Either way the remedy is
// the same: rebuild with PrepareJointSharded and rewrite the artifact
// with SaveIndexArtifact.
var (
	ErrArtifactCorrupt = ta.ErrArtifactCorrupt
	ErrArtifactStale   = ta.ErrArtifactStale
)

// MappedIndexBytes returns the total bytes of zero-copy index artifact
// storage currently open in this process (on unix, memory mapped from
// artifact files, outside the Go heap). Serving exposes it as the
// ebsn_mapped_bytes gauge.
func MappedIndexBytes() int64 { return ta.MappedBytes() }

// indexFingerprint hashes everything that determines the built joint
// index — the normalized build configuration plus the raw bytes of the
// event and partner embedding rows — so an artifact written after one
// build refuses to load against any other model or configuration.
// pruneK and shards are normalized exactly as the build normalizes them
// (pruneK ≤ 0 or beyond the event count keeps the full space; shards
// clamp to [1, partners]), so equivalent configurations map to the same
// artifact.
func (r *Recommender) indexFingerprint(events, partners [][]float32, pruneK, shards int) uint64 {
	pk := pruneK
	if pk <= 0 || pk > len(events) {
		pk = len(events)
	}
	ns := shards
	if ns < 1 {
		ns = 1
	}
	if ns > len(partners) {
		ns = len(partners)
	}
	return ta.Fingerprint(
		[]uint64{uint64(r.cfg.K), uint64(pk), uint64(ns), uint64(len(events)), uint64(len(partners))},
		events, partners)
}

// SaveIndexArtifact serializes the prepared joint engine — packed
// candidate rows, FastIndex bounds and the shard partition — into a
// zero-copy index artifact at path, written atomically. The artifact is
// stamped with a fingerprint of the current embeddings and build
// configuration; PrepareJointFromArtifact on the same model maps it
// back instead of rebuilding. Requires PrepareJointSharded (the
// embeddings are assumed frozen, as the joint-query contract already
// requires).
func (r *Recommender) SaveIndexArtifact(path string) error {
	if r.taEngine == nil {
		return fmt.Errorf("ebsn: no joint engine prepared; call PrepareJointSharded first")
	}
	events, partners := r.jointVectors()
	fp := r.indexFingerprint(events, partners, r.taPruneK, r.taEngine.Shards())
	return r.taEngine.SaveArtifact(path, fp)
}

// PrepareJointFromArtifact is PrepareJointSharded without the build: it
// maps the artifact at path and aliases the engine's candidate and
// index storage directly onto the mapped pages, after verifying the
// header, every section checksum, and that the artifact's fingerprint
// matches this model's embeddings and the given configuration. A
// mapped engine answers bit-identically to a fresh build. On any error
// — missing file, ErrArtifactCorrupt, ErrArtifactStale — the
// recommender is left untouched and the caller falls back to
// PrepareJointSharded (and typically rewrites the artifact with
// SaveIndexArtifact).
func (r *Recommender) PrepareJointFromArtifact(path string, pruneK, shards int) error {
	events, partners := r.jointVectors()
	fp := r.indexFingerprint(events, partners, pruneK, shards)
	eng, err := engine.OpenArtifact(path, fp)
	if err != nil {
		return err
	}
	r.installEngine(eng, pruneK)
	return nil
}
