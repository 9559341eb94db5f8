package ta

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ebsn/internal/rng"
)

// buildTieSet builds a candidate set + index whose vectors contain
// deliberate duplicates, so top-n results include exact score ties and
// the round-trip tests exercise the canonical tie order.
func buildTieSet(t testing.TB, seed uint64, nEvents, nPartners, k, topK int) (*CandidateSet, *FastIndex) {
	t.Helper()
	src := rng.New(seed)
	events := randomVecs(src, nEvents, k, true)
	partners := randomVecs(src, nPartners, k, true)
	for i := 4; i < nEvents; i += 5 {
		events[i] = append([]float32(nil), events[i-1]...)
	}
	for u := 3; u < nPartners; u += 4 {
		partners[u] = append([]float32(nil), partners[u-1]...)
	}
	set, err := BuildCandidates(events, partners, BuildConfig{TopKEvents: topK})
	if err != nil {
		t.Fatal(err)
	}
	return set, NewFastIndex(set)
}

// writeTieArtifact writes buildTieSet's single-segment artifact and
// returns its path, fingerprint, and the original set/index.
func writeTieArtifact(t testing.TB, dir string) (string, uint64, *CandidateSet, *FastIndex) {
	t.Helper()
	set, idx := buildTieSet(t, 42, 60, 35, 8, 9)
	fp := Fingerprint([]uint64{uint64(set.K), uint64(len(set.Events)), uint64(len(set.Partners))},
		set.Events, set.Partners)
	path := filepath.Join(dir, "index.art")
	seg := Segment{Lo: 0, Hi: int32(len(set.Partners)), Set: set, Idx: idx}
	if err := WriteArtifact(path, fp, set.K, len(set.Partners), []Segment{seg}); err != nil {
		t.Fatal(err)
	}
	return path, fp, set, idx
}

// queryBits runs a tie-heavy query workload against an index and
// returns the exact result stream (pairs + score bit patterns).
func queryBits(t testing.TB, idx *FastIndex, seed uint64) []uint64 {
	t.Helper()
	src := rng.New(seed)
	sc := GetScratch()
	defer PutScratch(sc)
	var out []uint64
	for trial := 0; trial < 40; trial++ {
		u := randomVecs(src, 1, idx.set.K, true)[0]
		for _, n := range []int{1, 5, 17} {
			res, _ := idx.TopNExcludingScratch(u, n, int32(trial%7), sc)
			for _, r := range res {
				out = append(out, uint64(r.Event)<<40|uint64(r.Partner)<<8)
				out = append(out, uint64(math.Float32bits(r.Score)))
			}
		}
	}
	return out
}

func TestArtifactRoundTripBitIdentical(t *testing.T) {
	path, fp, set, idx := writeTieArtifact(t, t.TempDir())
	art, err := OpenArtifact(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer art.Close()
	segs := art.Segments()
	if len(segs) != 1 {
		t.Fatalf("got %d segments", len(segs))
	}
	m := segs[0]
	if len(m.Set.Events) != len(set.Events) || len(m.Set.Partners) != len(set.Partners) ||
		len(m.Set.Pairs) != len(set.Pairs) {
		t.Fatal("mapped geometry differs")
	}
	for i, p := range set.Pairs {
		if m.Set.Pairs[i] != p {
			t.Fatalf("pair %d differs", i)
		}
	}
	for i, c := range set.Cross {
		if math.Float32bits(m.Set.Cross[i]) != math.Float32bits(c) {
			t.Fatalf("cross %d differs", i)
		}
	}
	want := queryBits(t, idx, 99)
	got := queryBits(t, m.Idx, 99)
	if len(want) != len(got) {
		t.Fatalf("result stream length %d vs %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("result stream diverges at %d", i)
		}
	}
}

// TestArtifactHeapDecodeMatchesMapped drives the decode path over a
// plain heap copy of the file — exactly what the non-unix mapFile
// fallback produces — and checks it yields the same index as the
// mmap-backed open.
func TestArtifactHeapDecodeMatchesMapped(t *testing.T) {
	path, fp, _, idx := writeTieArtifact(t, t.TempDir())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	art, err := decodeArtifact(&mapping{data: raw}, fp)
	if err != nil {
		t.Fatal(err)
	}
	want := queryBits(t, idx, 7)
	got := queryBits(t, art.Segments()[0].Idx, 7)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("heap decode diverges at %d", i)
		}
	}
}

func TestArtifactCorruptionTable(t *testing.T) {
	dir := t.TempDir()
	path, fp, _, _ := writeTieArtifact(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
		wantFp uint64
	}{
		{"truncated header", func(b []byte) []byte { return b[:10] }, ErrArtifactCorrupt, fp},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-100] }, ErrArtifactCorrupt, fp},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrArtifactCorrupt, fp},
		{"version skew", func(b []byte) []byte { b[11] = 99; return b }, ErrArtifactStale, fp},
		{"header bit flip", func(b []byte) []byte { b[30] ^= 0x40; return b }, ErrArtifactCorrupt, fp},
		{"directory bit flip", func(b []byte) []byte { b[artifactHeaderLen+3] ^= 1; return b }, ErrArtifactCorrupt, fp},
		{"payload bit flip", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, ErrArtifactCorrupt, fp},
		{"fingerprint mismatch", func(b []byte) []byte { return b }, ErrArtifactStale, fp + 1},
		// Bit 0 once marked int8 sections; every flag is unknown now, so
		// such a file is stale even with a valid header checksum.
		{"legacy flag", func(b []byte) []byte { return setArtifactFlags(b, 1) }, ErrArtifactStale, fp},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), raw...))
			p := filepath.Join(dir, "mutated.art")
			if err := os.WriteFile(p, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := OpenArtifact(p, tc.wantFp)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}

	t.Run("missing file", func(t *testing.T) {
		_, err := OpenArtifact(filepath.Join(dir, "nope.art"), fp)
		if !os.IsNotExist(err) {
			t.Fatalf("got %v, want not-exist", err)
		}
	})
}

// setArtifactFlags overwrites an artifact's flags word and recomputes
// the header checksum, so only the flags are wrong.
func setArtifactFlags(b []byte, flags uint32) []byte {
	binary.BigEndian.PutUint32(b[24:], flags)
	binary.BigEndian.PutUint32(b[52:], crc32.ChecksumIEEE(b[:52]))
	return b
}

// TestArtifactMappedPackQuantizedNoop checks that PackQuantized — Pack,
// kept for the benchmark harness — leaves a mapped set's rows on the
// artifact's pages instead of copying them into the heap.
func TestArtifactMappedPackQuantizedNoop(t *testing.T) {
	path, fp, _, _ := writeTieArtifact(t, t.TempDir())
	art, err := OpenArtifact(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer art.Close()
	set := art.Segments()[0].Set
	beforeE, beforeP := &set.eventData[0], &set.partnerData[0]
	set.PackQuantized()
	if &set.eventData[0] != beforeE || &set.partnerData[0] != beforeP ||
		&set.Events[0][0] != beforeE || &set.Partners[0][0] != beforeP {
		t.Fatal("PackQuantized moved a mapped set's rows off the artifact pages")
	}
}

func TestArtifactMappedBytesAccounting(t *testing.T) {
	path, fp, _, _ := writeTieArtifact(t, t.TempDir())
	before := MappedBytes()
	art, err := OpenArtifact(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if got := MappedBytes() - before; got != art.Size() {
		t.Fatalf("MappedBytes grew by %d, artifact is %d bytes", got, art.Size())
	}
	if err := art.Close(); err != nil {
		t.Fatal(err)
	}
	if err := art.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if got := MappedBytes(); got != before {
		t.Fatalf("MappedBytes %d after close, want %d", got, before)
	}
}

// TestFoldDeltaSharesPartnerStorage checks that a fold reuses the base's
// packed partner rows instead of copying them — every row of the folded
// set aliases the base's storage — for a built base and for a mapped
// one, and that the folded set takes the base's artifact pin, so a
// mapped base's pages stay mapped while the fold serves. Its answers
// stay those of a fold of a built base.
func TestFoldDeltaSharesPartnerStorage(t *testing.T) {
	path, fp, built, _ := writeTieArtifact(t, t.TempDir())
	art, err := OpenArtifact(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer art.Close()
	src := rng.New(43)
	arrivals := randomVecs(src, 5, built.K, true)
	var answers [][]uint64
	for _, base := range []*CandidateSet{built, art.Segments()[0].Set} {
		d := NewDeltaForSet(base, 9)
		if err := d.AddEvents(arrivals); err != nil {
			t.Fatal(err)
		}
		folded, idx := FoldDelta(base, d.View(), 2)
		if &folded.partnerData[0] != &base.partnerData[0] || len(folded.partnerData) != len(base.partnerData) {
			t.Fatal("folded set copied the base's packed partner rows")
		}
		for u := range base.Partners {
			if &folded.Partners[u][0] != &base.Partners[u][0] {
				t.Fatalf("folded partner row %d does not alias the base's", u)
			}
		}
		if folded.owner != base.owner {
			t.Fatalf("folded set pins %p, base pins %p", folded.owner, base.owner)
		}
		answers = append(answers, queryBits(t, idx, 44))
	}
	if art.Segments()[0].Set.owner != art {
		t.Fatal("mapped base does not pin its artifact")
	}
	if !slices.Equal(answers[0], answers[1]) {
		t.Fatal("folds of the built and the mapped base answer differently")
	}
}
