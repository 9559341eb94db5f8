package workload

import (
	"math"
	"sort"
	"testing"
	"time"

	"ebsn/internal/ebsnet"
	"ebsn/internal/geo"
	"ebsn/internal/rng"
	"ebsn/internal/vecmath"
)

func TestParseStrategy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Strategy
		ok   bool
	}{
		{"", StrategyMean, true},
		{"mean", StrategyMean, true},
		{"least-misery", StrategyLeastMisery, true},
		{"median", 0, false},
	} {
		got, err := ParseStrategy(tc.in)
		if tc.ok != (err == nil) {
			t.Fatalf("ParseStrategy(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
		}
		if err == nil && got != tc.want {
			t.Fatalf("ParseStrategy(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if StrategyMean.String() != "mean" || StrategyLeastMisery.String() != "least-misery" {
		t.Fatal("strategy wire names drifted")
	}
}

func TestReduce(t *testing.T) {
	row := []float32{0.5, -1.5, 2}
	if got := StrategyLeastMisery.Reduce(row); got != -1.5 {
		t.Fatalf("least-misery = %v, want -1.5", got)
	}
	if got := StrategyMean.Reduce(row); math.Abs(float64(got-1.0/3)) > 1e-6 {
		t.Fatalf("mean = %v, want ~1/3", got)
	}
}

func TestMeanVectorIsSingleQueryPoint(t *testing.T) {
	// The linearity that makes the mean strategy one query: scoring with
	// the averaged vector must equal averaging the per-member scores.
	src := rng.New(11)
	members := make([][]float32, 4)
	for i := range members {
		v := make([]float32, 8)
		for d := range v {
			v[d] = float32(src.Gaussian(0, 1))
		}
		members[i] = v
	}
	event := make([]float32, 8)
	for d := range event {
		event[d] = float32(src.Gaussian(0, 1))
	}
	mean := MeanVector(members, nil)
	viaVector := vecmath.Dot(mean, event)
	scores := make([]float32, len(members))
	for i, m := range members {
		scores[i] = vecmath.Dot(m, event)
	}
	viaScores := StrategyMean.Reduce(scores)
	if math.Abs(float64(viaVector-viaScores)) > 1e-4 {
		t.Fatalf("mean-vector score %v vs mean-of-scores %v", viaVector, viaScores)
	}
}

func testDataset(t *testing.T) *ebsnet.Dataset {
	t.Helper()
	base := time.Date(2012, 6, 1, 18, 0, 0, 0, time.UTC)
	d := &ebsnet.Dataset{
		Name:     "workload-test",
		NumUsers: 4,
		Venues: []geo.Point{
			{Lat: 30.27, Lng: -97.74}, // downtown
			{Lat: 30.45, Lng: -97.79}, // ~20 km north
		},
	}
	for i := 0; i < 6; i++ {
		d.Events = append(d.Events, ebsnet.Event{
			Venue: int32(i % 2),
			Start: base.Add(time.Duration(i) * 24 * time.Hour),
		})
	}
	if err := d.Finalize(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCompileTimeWindow(t *testing.T) {
	d := testDataset(t)
	ids := []int32{0, 1, 2, 3, 4, 5}
	base := d.Events[0].Start

	pred, allowed := Compile(Constraint{}, d, ids)
	if pred != nil || allowed != 6 {
		t.Fatalf("zero constraint: pred=%v allowed=%d, want nil/6", pred, allowed)
	}

	// Half-open [day1, day3): events starting on day 1 and 2 only.
	c := Constraint{From: base.Add(24 * time.Hour), Until: base.Add(3 * 24 * time.Hour)}
	pred, allowed = Compile(c, d, ids)
	if allowed != 2 {
		t.Fatalf("window allowed %d events, want 2", allowed)
	}
	want := []bool{false, true, true, false, false, false}
	for i := range want {
		if pred[i] != want[i] {
			t.Fatalf("pred[%d] = %v, want %v", i, pred[i], want[i])
		}
	}
	// Boundary: an event exactly at Until is excluded, exactly at From
	// included — adjacent windows tile without overlap.
	if !c.Allow(c.From, d.Venues[0]) {
		t.Fatal("event at From excluded")
	}
	if c.Allow(c.Until, d.Venues[0]) {
		t.Fatal("event at Until included")
	}
}

func TestCompileGeoRadius(t *testing.T) {
	d := testDataset(t)
	ids := []int32{0, 1, 2, 3, 4, 5}
	// 5 km around downtown keeps only venue-0 events (even indices).
	c := Constraint{Center: d.Venues[0], RadiusKm: 5}
	pred, allowed := Compile(c, d, ids)
	if allowed != 3 {
		t.Fatalf("radius allowed %d events, want 3", allowed)
	}
	for i := range pred {
		if pred[i] != (i%2 == 0) {
			t.Fatalf("pred[%d] = %v, want %v", i, pred[i], i%2 == 0)
		}
	}
}

func TestParseConstraint(t *testing.T) {
	c, err := ParseConstraint("2012-06-02T00:00:00Z", "2012-06-04T00:00:00Z", "30.27,-97.74,5")
	if err != nil {
		t.Fatal(err)
	}
	if c.From.IsZero() || c.Until.IsZero() || c.RadiusKm != 5 || c.Center.Lat != 30.27 {
		t.Fatalf("parsed constraint %+v incomplete", c)
	}
	if _, err := ParseConstraint("not-a-time", "", ""); err == nil {
		t.Fatal("bad from accepted")
	}
	if _, err := ParseConstraint("", "", "1,2"); err == nil {
		t.Fatal("two-field within accepted")
	}
	if _, err := ParseConstraint("", "", "1,2,-3"); err == nil {
		t.Fatal("negative radius accepted")
	}
	if _, err := ParseConstraint("2012-06-04T00:00:00Z", "2012-06-02T00:00:00Z", ""); err == nil {
		t.Fatal("inverted window accepted")
	}
	z, err := ParseConstraint("", "", "")
	if err != nil || !z.IsZero() {
		t.Fatalf("empty params: %+v, %v", z, err)
	}
}

func TestConstraintKey(t *testing.T) {
	if (Constraint{}).Key() != "" {
		t.Fatal("zero constraint key not empty")
	}
	a, _ := ParseConstraint("2012-06-02T00:00:00Z", "", "")
	b, _ := ParseConstraint("2012-06-03T00:00:00Z", "", "")
	g, _ := ParseConstraint("2012-06-02T00:00:00Z", "", "30.27,-97.74,5")
	if a.Key() == b.Key() || a.Key() == g.Key() || a.Key() == "" {
		t.Fatalf("keys collide: %q %q %q", a.Key(), b.Key(), g.Key())
	}
}

func TestJoinPartners(t *testing.T) {
	src := rng.New(21)
	k := 8
	vec := func() []float32 {
		v := make([]float32, k)
		for d := range v {
			v[d] = float32(src.Gaussian(0, 1))
		}
		return v
	}
	user := vec()
	event := vec()
	partners := make([][]float32, 15)
	var packed []float32
	for i := range partners {
		partners[i] = vec()
		packed = append(packed, partners[i]...)
	}

	lists := JoinPartners(user, [][]float32{event}, packed, 3, 5)
	if len(lists) != 1 {
		t.Fatalf("got %d partner lists, want 1", len(lists))
	}
	got := lists[0]
	if len(got) != 5 {
		t.Fatalf("got %d partners, want 5", len(got))
	}

	// Brute-force oracle over the distributed form u·x + u·u' + x·u'.
	type ps struct {
		u int32
		s float64
	}
	var all []ps
	for u, p := range partners {
		if u == 3 {
			continue
		}
		s := float64(vecmath.Dot(user, event)) + float64(vecmath.Dot(user, p)) + float64(vecmath.Dot(event, p))
		all = append(all, ps{int32(u), s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].s != all[j].s {
			return all[i].s > all[j].s
		}
		return all[i].u < all[j].u
	})
	for i, g := range got {
		if g.Partner == 3 {
			t.Fatal("excluded partner surfaced")
		}
		if g.Partner != all[i].u {
			t.Fatalf("rank %d: partner %d, oracle %d", i, g.Partner, all[i].u)
		}
		// (u+x)·u' vs u·u' + x·u' differ only by accumulation order.
		if math.Abs(float64(g.Score)-all[i].s) > 1e-4 {
			t.Fatalf("rank %d: score %v, oracle %v", i, g.Score, all[i].s)
		}
	}
}

// BenchmarkFeedJoin times one feed's partner join at the benchmark
// city's shape: 11 890 partner rows of dim 60, n = 10 events, m = 5
// companions each. The rows stream once per request in panel blocks, so
// the per-op allocation is the packed queries, one block of scores and
// the result lists — CI fails the build above 16 KiB/op.
func BenchmarkFeedJoin(b *testing.B) {
	const rows, k, n, m = 11890, 60, 10, 5
	src := rng.New(23)
	vec := func() []float32 {
		v := make([]float32, k)
		for d := range v {
			v[d] = float32(src.Gaussian(0, 0.3))
		}
		return v
	}
	partners := make([]float32, 0, rows*k)
	for i := 0; i < rows; i++ {
		partners = append(partners, vec()...)
	}
	user := vec()
	events := make([][]float32, n)
	for i := range events {
		events[i] = vec()
	}
	b.SetBytes(int64(4 * rows * k))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JoinPartners(user, events, partners, int32(i%rows), m)
	}
}
