package ebsn

import (
	"context"
	"path/filepath"
	"testing"
)

// TestAssembleCheckpointResume exercises the crash-safe training loop
// end to end: assemble, train half the budget, checkpoint, "crash",
// reassemble, resume from the checkpoint, finish — the resumed model
// must pick up the step counter (and with it the decay schedule) where
// the checkpoint left off.
func TestAssembleCheckpointResume(t *testing.T) {
	cfg := Config{Seed: 11, Threads: 2, TrainSteps: lifecycleTrainSteps, K: 8}
	d, err := GenerateDataset(GeneratorConfigFor(CityTiny, cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Assemble(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Model().Steps() != 0 {
		t.Fatalf("Assemble trained the model: %d steps", rec.Model().Steps())
	}
	total := rec.Model().Cfg.TotalSteps
	if total != lifecycleTrainSteps {
		t.Fatalf("TotalSteps = %d, want %d", total, lifecycleTrainSteps)
	}

	// First half, then checkpoint.
	if taken := rec.Model().TrainStepsCtx(context.Background(), total/2); taken != total/2 {
		t.Fatalf("first half took %d steps", taken)
	}
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := rec.SaveModel(path); err != nil {
		t.Fatal(err)
	}

	// "Crash": a fresh process reassembles and resumes.
	resumed, err := Assemble(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := LoadModelSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Model().RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if resumed.Model().Steps() != total/2 {
		t.Fatalf("resumed step counter = %d, want %d", resumed.Model().Steps(), total/2)
	}
	remaining := total - resumed.Model().Steps()
	if taken := resumed.Model().TrainStepsCtx(context.Background(), remaining); taken != remaining {
		t.Fatalf("second half took %d steps, want %d", taken, remaining)
	}
	if resumed.Model().Steps() != total {
		t.Fatalf("final step counter = %d, want %d", resumed.Model().Steps(), total)
	}

	// The finished model must actually recommend.
	recs, err := resumed.TopEvents(0, 5)
	if err != nil || len(recs) == 0 {
		t.Fatalf("resumed model cannot recommend: %v", err)
	}
}

func TestWithSnapshotSwapsEmbeddings(t *testing.T) {
	rec := tinyRecommender(t)
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := rec.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadModelSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	next, err := rec.WithSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if next.Dataset() != rec.Dataset() || next.Split() != rec.Split() {
		t.Fatal("WithSnapshot must share the immutable pipeline state")
	}
	if next.Model() == rec.Model() {
		t.Fatal("WithSnapshot must build a fresh model")
	}
	if next.Model().Steps() != rec.Model().Steps() {
		t.Fatalf("step counter not carried: %d vs %d", next.Model().Steps(), rec.Model().Steps())
	}
	// Identical snapshots must produce identical rankings.
	a, err := rec.TopEvents(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := next.TopEvents(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d differs after snapshot swap: %+v vs %+v", i, a[i], b[i])
		}
	}
	// And the clone can build its own TA index without touching the
	// original.
	if err := next.PrepareJoint(5); err != nil {
		t.Fatal(err)
	}
	if _, err := recommendOne(next, 3, 5); err != nil {
		t.Fatal(err)
	}
}

func TestWithSnapshotRejectsMismatchedShapes(t *testing.T) {
	rec := tinyRecommender(t)
	other, err := New(Config{City: CityTiny, Seed: 99, K: 12, TrainSteps: 1000, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := other.Model().Snapshot()
	if _, err := rec.WithSnapshot(snap); err == nil {
		t.Fatal("snapshot with mismatched K accepted")
	}
	if _, err := rec.WithSnapshot(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}
