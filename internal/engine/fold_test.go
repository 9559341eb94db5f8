package engine

import (
	"testing"

	"ebsn/internal/rng"
	"ebsn/internal/ta"
)

// TestFoldBitIdenticalToMonolithicFold checks the sharded delta fold:
// for every shard count, folding a delta view into the engine must
// answer bit-identically to folding the same view into a monolithic
// candidate set with ta.FoldDelta — and the original engine must be
// left untouched (the fold is copy-on-write).
func TestFoldBitIdenticalToMonolithicFold(t *testing.T) {
	shapes := []struct {
		nx, nu, k, topK, added int
	}{
		{22, 15, 6, 0, 5},
		{30, 33, 8, 6, 9},
	}
	for _, sh := range shapes {
		src := rng.New(910 + uint64(sh.nu))
		events := randomVecs(src, sh.nx, sh.k)
		partners := randomVecs(src, sh.nu, sh.k)

		// The monolithic reference: same base, same delta view, folded
		// with ta.FoldDelta.
		baseSet, err := ta.BuildCandidates(events, partners, ta.BuildConfig{TopKEvents: sh.topK, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		delta, err := ta.NewDelta(partners, sh.topK)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range randomVecs(src, sh.added, sh.k) {
			if err := delta.AddEvent(v); err != nil {
				t.Fatal(err)
			}
		}
		view := delta.View()
		_, refIdx := ta.FoldDelta(baseSet, view, 2)

		queries := randomVecs(src, 10, sh.k)
		for _, shards := range shardCounts {
			e, err := Build(events, partners, Config{Shards: shards, TopKEvents: sh.topK, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			// Pin a pre-fold answer to prove immutability afterwards.
			preWant, _, err := e.SearchInto(queries[0], 8, -1, nil, nil)
			if err != nil {
				t.Fatal(err)
			}

			folded, err := e.Fold(view, 2)
			if err != nil {
				t.Fatal(err)
			}
			if folded.NumEvents() != sh.nx+sh.added {
				t.Fatalf("shards=%d: folded NumEvents = %d, want %d", shards, folded.NumEvents(), sh.nx+sh.added)
			}
			if e.NumEvents() != sh.nx {
				t.Fatalf("shards=%d: fold mutated the source engine (NumEvents %d)", shards, e.NumEvents())
			}
			for q, u := range queries {
				n := 1 + src.Intn(sh.nu*2)
				exclude := int32(src.Intn(sh.nu+2)) - 1
				want, _ := monoSearch(refIdx, u, n, exclude, nil)
				got, _, err := folded.SearchInto(u, n, exclude, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, "folded engine vs monolithic fold", want, got)
				_ = q
			}
			// The source engine still answers exactly as before the fold.
			preGot, _, err := e.SearchInto(queries[0], 8, -1, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, "source engine after fold", preWant, preGot)
		}
	}
}
