package engine

import (
	"testing"

	"ebsn/internal/rng"
	"ebsn/internal/ta"
)

// randomPred draws a predicate allowing each event independently with
// probability selectivity.
func randomPred(src *rng.Source, nEvents int, selectivity float64) ta.EventPredicate {
	pred := make(ta.EventPredicate, nEvents)
	for x := range pred {
		pred[x] = src.Float64() < selectivity
	}
	return pred
}

// TestShardedPredicateBitIdenticalToOracle is the ISSUE 10 acceptance
// property: across shard counts {1, 4}, random shapes, selectivities,
// result sizes and exclusions — including ties constructed exactly at
// the filter boundary via duplicated event rows — the engine's
// constrained answer must be bit-identical to the monolithic
// filter-then-rank oracle (FastIndex.Search, itself oracle-gated in
// internal/ta against the exhaustive reference).
func TestShardedPredicateBitIdenticalToOracle(t *testing.T) {
	shapes := []struct {
		nx, nu, k, topK int
	}{
		{24, 16, 6, 0},
		{36, 40, 8, 7},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		src := rng.New(8100 + seed)
		for _, sh := range shapes {
			events := randomVecs(src, sh.nx, sh.k)
			// Duplicate the first quarter of the event rows: exact score
			// ties across each twin, with the predicate free to ban one
			// side — ties at the filter boundary.
			for i := 0; i < sh.nx/4; i++ {
				dup := make([]float32, sh.k)
				copy(dup, events[i])
				events = append(events, dup)
			}
			partners := randomVecs(src, sh.nu, sh.k)
			mono := monolithic(t, events, partners, sh.topK)
			for _, shards := range []int{1, 4} {
				e, err := Build(events, partners, Config{Shards: shards, TopKEvents: sh.topK, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				for _, sel := range []float64{0, 0.25, 0.6, 1} {
					pred := randomPred(src, len(events), sel)
					u := randomVecs(src, 1, sh.k)[0]
					for _, n := range []int{1, 5, 12} {
						for _, exclude := range []int32{-1, int32(src.Uint64() % uint64(sh.nu))} {
							want, _ := monoSearch(mono, u, n, exclude, pred)
							got, stats, err := e.Search([][]float32{u}, []int32{exclude}, n, pred, nil, nil, nil, nil)
							if err != nil {
								t.Fatal(err)
							}
							assertBitIdentical(t, "constrained sharded vs monolithic", want, got)
							if stats.Agg.Candidates != e.Candidates() {
								t.Fatalf("aggregated candidates %d, want %d", stats.Agg.Candidates, e.Candidates())
							}
						}
					}
				}
			}
		}
	}
}

// TestShardedPredicateNilBitIdentical pins that a nil predicate and a nil
// exclude through Search take the exact unconstrained path: same bits as
// SearchInto excluding no one.
func TestShardedPredicateNilBitIdentical(t *testing.T) {
	src := rng.New(8200)
	events := randomVecs(src, 30, 8)
	partners := randomVecs(src, 25, 8)
	for _, shards := range []int{1, 4} {
		e, err := Build(events, partners, Config{Shards: shards, TopKEvents: 0, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			u := randomVecs(src, 1, 8)[0]
			want, _, err := e.SearchInto(u, 8, -1, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := e.Search([][]float32{u}, nil, 8, nil, nil, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, "nil predicate vs Search", want, got)
		}
	}
}

// TestSearchPredValidation pins the predicate shape check at the engine
// boundary.
func TestSearchPredValidation(t *testing.T) {
	src := rng.New(8400)
	events := randomVecs(src, 10, 4)
	partners := randomVecs(src, 8, 4)
	e, err := Build(events, partners, Config{Shards: 2, TopKEvents: 0, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := randomVecs(src, 1, 4)[0]
	if _, _, err := e.Search([][]float32{u}, nil, 3, make(ta.EventPredicate, 7), nil, nil, nil, nil); err == nil {
		t.Fatal("short predicate accepted")
	}
}
