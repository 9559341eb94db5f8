package engine

import "ebsn/internal/ta"

// SaveArtifact serializes the engine's built state — every shard's
// packed candidate set, FastIndex and partner range, quantized mirrors
// included when EnableQuantized has run — into a zero-copy index
// artifact at path (see ta.WriteArtifact for the format and atomicity
// guarantees). The fingerprint should come from ta.Fingerprint over the
// engine's build inputs; OpenArtifact with the same value maps the file
// back into an equivalent engine.
func (e *Engine) SaveArtifact(path string, fingerprint uint64) error {
	segs := make([]ta.Segment, 0, len(e.shards))
	for _, sh := range e.shards {
		segs = append(segs, ta.Segment{Lo: sh.lo, Hi: sh.hi, Set: sh.set, Idx: sh.idx})
	}
	return ta.WriteArtifact(path, fingerprint, e.k, e.nPartners, segs)
}

// OpenArtifact maps the artifact at path into a ready engine without
// rebuilding anything: every shard's candidate rows, index arrays and
// quantized mirrors alias the mapped file (see ta.OpenArtifact). The
// fingerprint must match the stored one or the open fails with
// ta.ErrArtifactStale; structural damage fails with
// ta.ErrArtifactCorrupt; callers fall back to Build in every error
// case. A mapped engine answers queries bit-identically to the build
// that produced the artifact. Quantized routing still starts off — call
// EnableQuantized to turn it on; when the artifact carries the int8
// mirrors that flip is free.
func OpenArtifact(path string, fingerprint uint64) (*Engine, error) {
	art, err := ta.OpenArtifact(path, fingerprint)
	if err != nil {
		return nil, err
	}
	e := newEngine(art.K(), art.Partners())
	e.art = art
	for _, seg := range art.Segments() {
		e.addShard(shard{set: seg.Set, idx: seg.Idx, lo: seg.Lo, hi: seg.Hi})
	}
	return e, nil
}

// Artifact returns the open artifact backing a mapped engine, or nil
// for an engine built in memory.
func (e *Engine) Artifact() *ta.Artifact { return e.art }
