package engine

import (
	"path/filepath"
	"strconv"
	"testing"

	"ebsn/internal/rng"
	"ebsn/internal/ta"
)

// tieVecs generates random vectors with deliberate duplicate rows, so
// queries hit exact score ties and the round-trip asserts canonical tie
// order too.
func tieVecs(src *rng.Source, n, k int) [][]float32 {
	out := randomVecs(src, n, k)
	for i := 3; i < n; i += 4 {
		out[i] = append([]float32(nil), out[i-1]...)
	}
	return out
}

// saveEngineArtifact writes e's artifact under dir and returns its path.
func saveEngineArtifact(t testing.TB, dir string, e *Engine, fp uint64) string {
	t.Helper()
	path := filepath.Join(dir, "engine.art")
	if err := e.SaveArtifact(path, fp); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestArtifactEngineBitIdentical is the issue's mapped-vs-built
// property test: for shards ∈ {1, 4}, an engine mapped from an artifact
// must answer SearchInto and SearchBatch bit-identically to the engine
// that wrote it — same pairs, same score bits, same tie order.
func TestArtifactEngineBitIdentical(t *testing.T) {
	src := rng.New(913)
	events := tieVecs(src, 80, 8)
	partners := tieVecs(src, 55, 8)
	queries := randomVecs(src, 30, 8)
	for _, shards := range []int{1, 4} {
		built, err := Build(events, partners, Config{Shards: shards, TopKEvents: 11, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		fp := ta.Fingerprint([]uint64{uint64(shards)}, events, partners)
		path := saveEngineArtifact(t, t.TempDir(), built, fp)
		mapped, err := OpenArtifact(path, fp)
		if err != nil {
			t.Fatal(err)
		}
		if mapped.Shards() != shards || mapped.Partners() != len(partners) ||
			mapped.K() != 8 || mapped.Candidates() != built.Candidates() {
			t.Fatalf("mapped geometry differs: %d shards %d partners %d pairs",
				mapped.Shards(), mapped.Partners(), mapped.Candidates())
		}
		if mapped.Artifact() == nil {
			t.Fatal("mapped engine lost its artifact")
		}
		label := "shards=" + strconv.Itoa(shards)
		for qi, u := range queries {
			n := 1 + qi%20
			exclude := int32(qi%len(partners)) - 1
			want, _, err := built.SearchInto(u, n, exclude, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := mapped.SearchInto(u, n, exclude, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, label, want, got)
		}
		exclude := make([]int32, len(queries))
		for i := range exclude {
			exclude[i] = int32(i % len(partners))
		}
		wantB, _, err := built.SearchBatch(queries, 7, exclude)
		if err != nil {
			t.Fatal(err)
		}
		gotB, _, err := mapped.SearchBatch(queries, 7, exclude)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantB {
			assertBitIdentical(t, label+" batch", wantB[i], gotB[i])
		}
	}
}

// TestArtifactEngineFold checks that a mapped engine folds a delta like
// a built one: the fold copies the mapped rows into fresh heap storage
// (it must not mutate the read-only mapping) and keeps answering
// bit-identically to a fold of the original engine.
func TestArtifactEngineFold(t *testing.T) {
	src := rng.New(517)
	events := tieVecs(src, 40, 6)
	partners := tieVecs(src, 30, 6)
	built, err := Build(events, partners, Config{Shards: 3, TopKEvents: 9, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fp := ta.Fingerprint(nil, events, partners)
	path := saveEngineArtifact(t, t.TempDir(), built, fp)
	mapped, err := OpenArtifact(path, fp)
	if err != nil {
		t.Fatal(err)
	}

	// One delta event with candidate pairs across the partner space.
	delta := randomVecs(src, 1, 6)
	view := ta.DeltaView{Events: delta}
	for u := 0; u < len(partners); u += 5 {
		var c float32
		for d := 0; d < 6; d++ {
			c += delta[0][d] * partners[u][d]
		}
		view.Pairs = append(view.Pairs, ta.Candidate{Event: 0, Partner: int32(u)})
		view.Cross = append(view.Cross, c)
	}
	wantFold, err := built.Fold(view, 2)
	if err != nil {
		t.Fatal(err)
	}
	gotFold, err := mapped.Fold(view, 2)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 10; qi++ {
		u := randomVecs(src, 1, 6)[0]
		want, _, err := wantFold.SearchInto(u, 9, -1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := gotFold.SearchInto(u, 9, -1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "fold over mapped", want, got)
	}
}

// BenchmarkEngineSearchMapped is the mapped-path alloc gate: the
// steady-state one-lane Search over an artifact-mapped engine must stay
// 0 allocs/op, exactly like BenchmarkEngineSearch.
func BenchmarkEngineSearchMapped(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run("shards="+strconv.Itoa(shards), func(b *testing.B) {
			built, queries := benchEngine(b, shards)
			path := saveEngineArtifact(b, b.TempDir(), built, 42)
			e, err := OpenArtifact(path, 42)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Artifact().Close()
			benchSearch(b, e, queries)
		})
	}
}
