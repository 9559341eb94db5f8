package ebsn

import (
	"math"
	"testing"
)

var cachedBatchRec *Recommender

// batchRecommender builds a private pipeline for the batching facade
// tests — they re-prepare the engine, which must not leak into the
// shared fixture.
func batchRecommender(t testing.TB) *Recommender {
	t.Helper()
	if cachedBatchRec != nil {
		return cachedBatchRec
	}
	rec, err := New(Config{City: CityTiny, Seed: 7, Threads: 4, TrainSteps: tinyTrainSteps})
	if err != nil {
		t.Fatal(err)
	}
	cachedBatchRec = rec
	return rec
}

func pairsBitIdentical(t *testing.T, label string, want, got []PairRecommendation) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d results", label, len(got), len(want))
	}
	for i := range want {
		if want[i].Event != got[i].Event || want[i].Partner != got[i].Partner ||
			math.Float32bits(want[i].Score) != math.Float32bits(got[i].Score) {
			t.Fatalf("%s: rank %d: got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestTopEventsBatchScratchMatchesSingle runs a batch with a duplicated
// user twice, the second time on the warm pooled panel, and checks every
// lane against TopEvents bit for bit.
func TestTopEventsBatchScratchMatchesSingle(t *testing.T) {
	rec := batchRecommender(t)
	users := []int32{0, 3, 1, 9, 9, 2}
	for trial := 0; trial < 2; trial++ { // second pass exercises warm buffers
		res, err := rec.TopEventsBatch(users, 6)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(users) {
			t.Fatalf("got %d result lists", len(res))
		}
		for i, u := range users {
			single, err := rec.TopEvents(u, 6)
			if err != nil {
				t.Fatal(err)
			}
			if len(single) != len(res[i]) {
				t.Fatalf("user %d: %d vs %d results", u, len(res[i]), len(single))
			}
			for j := range single {
				if single[j].Event != res[i][j].Event ||
					math.Float32bits(single[j].Score) != math.Float32bits(res[i][j].Score) {
					t.Fatalf("user %d rank %d: %+v vs %+v", u, j, res[i][j], single[j])
				}
			}
		}
	}
	if _, err := rec.TopEventsBatch([]int32{0}, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := rec.TopEventsBatch([]int32{-2}, 3); err == nil {
		t.Error("bad user accepted")
	}
}

func TestTopEventPartnersBatchMatchesSingle(t *testing.T) {
	rec := batchRecommender(t)
	if err := rec.PrepareJointSharded(10, 3); err != nil {
		t.Fatal(err)
	}
	users := []int32{0, 1, 2, 3, 4, 5, 6}
	batch, stats, err := rec.Recommend(users, 8, Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(users) {
		t.Fatalf("batch size %d", len(batch))
	}
	if len(stats.Shards) != 3 {
		t.Fatalf("stats cover %d shards, want 3", len(stats.Shards))
	}
	for i, u := range users {
		single, err := recommendOne(rec, u, 8)
		if err != nil {
			t.Fatal(err)
		}
		pairsBitIdentical(t, "batch vs sharded single", single, batch[i])
	}
}

func TestTopEventPartnersBatchValidation(t *testing.T) {
	rec := batchRecommender(t)
	if _, _, err := rec.Recommend([]int32{0}, 0, Constraint{}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, _, err := rec.Recommend([]int32{-1}, 3, Constraint{}); err == nil {
		t.Error("negative user accepted")
	}
	if _, _, err := rec.Recommend([]int32{int32(rec.Dataset().NumUsers)}, 3, Constraint{}); err == nil {
		t.Error("out-of-range user accepted")
	}
	if out, _, err := rec.Recommend(nil, 3, Constraint{}); err != nil || len(out) != 0 {
		t.Error("empty batch should be a no-op")
	}
}
