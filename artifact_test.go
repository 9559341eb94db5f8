package ebsn

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"
)

// TestIndexArtifactFacadeRoundTrip saves a prepared joint engine as an
// artifact, maps it into a second recommender over the same embeddings,
// and checks both answer identically — then flips the build configuration and asserts the
// artifact is refused as stale.
func TestIndexArtifactFacadeRoundTrip(t *testing.T) {
	rec, err := New(Config{City: CityTiny, Seed: 11, Threads: 4, TrainSteps: tinyTrainSteps})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.PrepareJointSharded(0, 2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.art")
	if err := rec.SaveIndexArtifact(path); err != nil {
		t.Fatal(err)
	}

	// Same embeddings, fresh recommender: the reload scenario.
	rec2, err := rec.WithSnapshot(rec.Model().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := rec2.PrepareJointFromArtifact(path, 0, 2); err != nil {
		t.Fatal(err)
	}
	if got := MappedIndexBytes(); got <= 0 {
		t.Fatalf("MappedIndexBytes = %d after mapping an artifact", got)
	}
	for u := int32(0); u < 25; u++ {
		want, err := recommendOne(rec, u, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := recommendOne(rec2, u, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("user %d: mapped engine diverges from built engine", u)
		}
	}

	// A different shard count or pruning is a different build: the same
	// file must be refused as stale, leaving the caller to rebuild.
	if err := rec2.PrepareJointFromArtifact(path, 0, 4); !errors.Is(err, ErrArtifactStale) {
		t.Fatalf("shards=4 against shards=2 artifact: got %v, want ErrArtifactStale", err)
	}
	if err := rec2.PrepareJointFromArtifact(path, 3, 2); !errors.Is(err, ErrArtifactStale) {
		t.Fatalf("pruneK=3 against full-space artifact: got %v, want ErrArtifactStale", err)
	}
}
