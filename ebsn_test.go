package ebsn

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"ebsn/internal/ebsnet"
	"ebsn/internal/geo"
)

var cachedRec *Recommender

// tinyRecommender builds one shared pipeline for the facade tests.
func tinyRecommender(t testing.TB) *Recommender {
	t.Helper()
	if cachedRec != nil {
		return cachedRec
	}
	rec, err := New(Config{City: CityTiny, Seed: 5, Threads: 4, TrainSteps: tinyTrainSteps})
	if err != nil {
		t.Fatal(err)
	}
	cachedRec = rec
	return rec
}

// recommendOne is one user's unconstrained Recommend.
func recommendOne(rec *Recommender, user int32, n int) ([]PairRecommendation, error) {
	out, _, err := firstLane(rec.Recommend([]int32{user}, n, Constraint{}))
	return out, err
}

func TestParseCityAndVariant(t *testing.T) {
	for _, name := range []string{"tiny", "small", "beijing", "shanghai"} {
		c, err := ParseCity(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.String() != name {
			t.Errorf("round trip %q -> %q", name, c.String())
		}
	}
	if _, err := ParseCity("tokyo"); err == nil {
		t.Error("unknown city accepted")
	}
	for s, want := range map[string]Variant{"gem-a": GEMA, "gem-p": GEMP, "pte": PTE} {
		v, err := ParseVariant(s)
		if err != nil || v != want {
			t.Errorf("ParseVariant(%q) = %v, %v", s, v, err)
		}
	}
	if _, err := ParseVariant("word2vec"); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestGeneratorConfigForScales(t *testing.T) {
	small := GeneratorConfigFor(CitySmall, 1)
	beijing := GeneratorConfigFor(CityBeijing, 1)
	if small.NumUsers >= beijing.NumUsers {
		t.Error("beijing preset not larger than small")
	}
	if beijing.NumUsers != 64113 || beijing.NumEvents != 12955 {
		t.Errorf("beijing preset does not match Table I: %d users %d events",
			beijing.NumUsers, beijing.NumEvents)
	}
}

func TestNewPipeline(t *testing.T) {
	rec := tinyRecommender(t)
	if rec.Dataset() == nil || rec.Split() == nil || rec.RelationGraphs() == nil || rec.Model() == nil {
		t.Fatal("pipeline components missing")
	}
	if rec.Model().Steps() != tinyTrainSteps {
		t.Errorf("Steps = %d, want %d", rec.Model().Steps(), tinyTrainSteps)
	}
	// Every surviving user attended at least 5 events (paper filter).
	d := rec.Dataset()
	for u := int32(0); int(u) < d.NumUsers; u++ {
		if len(d.UserEvents(u)) < 5 {
			t.Fatalf("user %d has %d events after filter", u, len(d.UserEvents(u)))
		}
	}
}

func TestTopEvents(t *testing.T) {
	rec := tinyRecommender(t)
	recs, err := rec.TopEvents(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 7 {
		t.Fatalf("got %d recommendations", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Score > recs[i-1].Score {
			t.Fatal("recommendations not sorted by score")
		}
	}
	// All recommended events are cold (test) events.
	for _, r := range recs {
		if rec.Split().Class(r.Event) != ebsnet.Test {
			t.Fatalf("recommended non-test event %d", r.Event)
		}
	}
	if _, err := rec.TopEvents(-1, 5); err == nil {
		t.Error("negative user accepted")
	}
	if _, err := rec.TopEvents(1, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestTopEventPartners(t *testing.T) {
	rec := tinyRecommender(t)
	pairs, err := recommendOne(rec, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("no pairs returned")
	}
	for i, p := range pairs {
		if p.Partner == 2 {
			t.Error("user recommended as their own partner")
		}
		if i > 0 && p.Score > pairs[i-1].Score {
			t.Error("pairs not sorted")
		}
		if rec.Split().Class(p.Event) != ebsnet.Test {
			t.Errorf("pair %d on non-test event %d", i, p.Event)
		}
	}
	if _, err := recommendOne(rec, -1, 5); err == nil {
		t.Error("negative user accepted")
	}
}

func TestPrepareJointFullVsPruned(t *testing.T) {
	rec := tinyRecommender(t)
	if err := rec.PrepareJoint(0); err != nil {
		t.Fatal(err)
	}
	full, err := recommendOne(rec, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.PrepareJoint(len(rec.Split().TestEvents)); err != nil {
		t.Fatal(err)
	}
	alsoFull, err := recommendOne(rec, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Pruning with k = all events is the identity.
	if len(full) != len(alsoFull) {
		t.Fatalf("identity pruning changed result count: %d vs %d", len(full), len(alsoFull))
	}
	for i := range full {
		if full[i] != alsoFull[i] {
			t.Fatalf("identity pruning changed results at %d: %+v vs %+v", i, full[i], alsoFull[i])
		}
	}
}

func TestEvaluateColdStartBeatsChance(t *testing.T) {
	rec := tinyRecommender(t)
	res, err := rec.EvaluateColdStart([]int{10}, 300)
	if err != nil {
		t.Fatal(err)
	}
	// Chance under the protocol is ~10/(pool size); the trained model
	// must clear it by a wide margin.
	if res.MustAt(10) < 0.05 {
		t.Errorf("cold-start acc@10 = %v, suspiciously close to chance", res.MustAt(10))
	}
}

func TestEvaluatePartner(t *testing.T) {
	rec := tinyRecommender(t)
	res, err := rec.EvaluatePartner([]int{10}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cases == 0 {
		t.Fatal("no partner cases evaluated")
	}
}

func TestFoldInEvent(t *testing.T) {
	rec := tinyRecommender(t)
	d := rec.Dataset()
	template := d.Events[0]
	vec, err := rec.FoldInEvent(template.Words, template.Venue, time.Date(2013, 1, 5, 19, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != rec.Model().K() {
		t.Fatalf("fold-in vector length %d", len(vec))
	}
	var nonzero bool
	for _, v := range vec {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("fold-in produced zero vector")
	}
	if _, err := rec.FoldInEvent(nil, int32(len(d.Venues)+1), time.Now()); err == nil {
		t.Error("out-of-range venue accepted")
	}
	_ = rec.ScoreColdEvent(0, vec) // must not panic
}

func TestSaveOpenRoundTrip(t *testing.T) {
	rec := tinyRecommender(t)
	dir := t.TempDir()
	if err := SaveDatasetCSV(rec.Dataset(), filepath.Join(dir, "dataset")); err != nil {
		t.Fatal(err)
	}
	if err := rec.SaveModel(filepath.Join(dir, "model.gob")); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Scores must match the original model exactly.
	for u := int32(0); u < 5; u++ {
		for x := int32(0); x < 5; x++ {
			if opened.Model().ScoreUserEvent(u, x) != rec.Model().ScoreUserEvent(u, x) {
				t.Fatalf("score mismatch after reopen at (%d,%d)", u, x)
			}
		}
	}
	if opened.Model().Steps() != rec.Model().Steps() {
		t.Error("step count lost in round trip")
	}
}

func TestOpenMissingDir(t *testing.T) {
	if _, err := Open(t.TempDir(), Config{}); err == nil {
		t.Fatal("open of empty dir succeeded")
	}
}

func TestBuildRejectsOverFiltering(t *testing.T) {
	d, err := GenerateDataset(GeneratorConfigFor(CityTiny, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(d, Config{MinEventsPerUser: 10_000}); err == nil {
		t.Fatal("pipeline accepted a filter that removes everyone")
	}
}

func TestEvaluateFullRanking(t *testing.T) {
	rec := tinyRecommender(t)
	m, err := rec.EvaluateFullRanking([]int{1, 10}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cases == 0 || m.MRR <= 0 || m.MeanRank < 1 {
		t.Errorf("degenerate full-ranking metrics: %+v", m)
	}
	if m.RecallAt[10] < m.RecallAt[1] {
		t.Error("recall not monotone")
	}
}

func TestTrainingObjective(t *testing.T) {
	rec := tinyRecommender(t)
	est, err := rec.TrainingObjective(2000)
	if err != nil {
		t.Fatal(err)
	}
	if est.Total <= 0 {
		t.Errorf("objective = %v", est.Total)
	}
	if len(est.PerRelation) == 0 {
		t.Error("no per-relation breakdown")
	}
}

func TestDescribeDataset(t *testing.T) {
	rec := tinyRecommender(t)
	d := rec.DescribeDataset()
	if d.Stats.Users != rec.Dataset().NumUsers {
		t.Error("description user count mismatch")
	}
	// Post-filter, every user has >= 5 events, so the median does too.
	if d.UserEventsMedian < 5 {
		t.Errorf("median events per user %d after min-5 filter", d.UserEventsMedian)
	}
}

// TestVenueRegionMatchesScan checks the fold-in's venue→region table
// against the scan it replaced: the region of the first dataset event
// at the venue, else of the geographically nearest event — for every
// dataset venue, including any that no event uses.
func TestVenueRegionMatchesScan(t *testing.T) {
	rec := tinyRecommender(t)
	d := rec.Dataset()
	if _, err := rec.FoldInEvent(d.Events[0].Words, d.Events[0].Venue, time.Now()); err != nil {
		t.Fatal(err)
	}
	scan := func(venue int32) int32 {
		for x, e := range d.Events {
			if e.Venue == venue {
				return int32(rec.graphs.EventRegion[x])
			}
		}
		best, bestKm := -1, math.Inf(1)
		for x, e := range d.Events {
			if km := geo.EquirectKm(d.Venues[venue], d.Venues[e.Venue]); km < bestKm {
				best, bestKm = x, km
			}
		}
		return int32(rec.graphs.EventRegion[best])
	}
	unused := 0
	for v := range d.Venues {
		if rec.fold.venueRegions[v] < 0 {
			unused++
		}
	}
	if unused == 0 {
		t.Fatal("every venue holds an event; the nearest-event fallback goes untested")
	}
	for v := range d.Venues {
		if got, want := rec.venueRegion(int32(v)), scan(int32(v)); got != want {
			t.Fatalf("venue %d: table region %d, scan region %d", v, got, want)
		}
	}
}
