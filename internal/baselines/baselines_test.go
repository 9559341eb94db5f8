package baselines

import (
	"sort"
	"testing"

	"ebsn/internal/datagen"
	"ebsn/internal/ebsnet"
	"ebsn/internal/eval"
	"ebsn/internal/geo"
	"ebsn/internal/text"
)

var (
	cachedD *ebsnet.Dataset
	cachedS *ebsnet.Split
	cachedG *ebsnet.Graphs
)

func testEnv(t testing.TB) (*ebsnet.Dataset, *ebsnet.Split, *ebsnet.Graphs) {
	t.Helper()
	if cachedD != nil {
		return cachedD, cachedS, cachedG
	}
	d, err := datagen.Generate(datagen.TinyConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	s, err := ebsnet.ChronologicalSplit(d, ebsnet.DefaultSplitConfig())
	if err != nil {
		t.Fatal(err)
	}
	g, err := ebsnet.BuildGraphs(d, s, ebsnet.GraphsConfig{
		DBSCAN:        geo.DBSCANConfig{EpsKm: 1.5, MinPts: 3},
		NoiseAttachKm: 5,
		Vocab:         text.VocabConfig{MinDocFreq: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	cachedD, cachedS, cachedG = d, s, g
	return d, s, g
}

// marginOverRandom sums score(pos) − score(shifted) over training edges:
// positive margins mean the model learned the attendance signal.
func marginOverRandom(sc eval.EventScorer, g *ebsnet.Graphs) float64 {
	var pos, rnd float64
	n := g.UserEvent.NumEdges()
	nb := g.UserEvent.NumB()
	for i := 0; i < n; i++ {
		e := g.UserEvent.Edge(i)
		pos += float64(sc.ScoreUserEvent(e.A, e.B))
		rnd += float64(sc.ScoreUserEvent(e.A, int32((int(e.B)+13*i+7)%nb)))
	}
	return pos - rnd
}

func TestPCMFLearnsSignal(t *testing.T) {
	_, _, g := testEnv(t)
	cfg := DefaultPCMFConfig()
	cfg.K = 16
	cfg.Steps = 150000
	p, err := NewPCMF(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m := marginOverRandom(p, g); m <= 0 {
		t.Errorf("PCMF margin over random = %.2f, want positive", m)
	}
}

func TestPCMFScoreTripleComposition(t *testing.T) {
	_, _, g := testEnv(t)
	cfg := DefaultPCMFConfig()
	cfg.K = 8
	cfg.Steps = 10000
	p, err := NewPCMF(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := p.ScoreTriple(1, 2, 3)
	uv, pv := p.users.row(1), p.users.row(2)
	var social float32
	for f := range uv {
		social += uv[f] * pv[f]
	}
	want := p.ScoreUserEvent(1, 3) + p.ScoreUserEvent(2, 3) + social
	if diff := got - want; diff > 1e-4 || diff < -1e-4 {
		t.Errorf("ScoreTriple = %v, want %v", got, want)
	}
}

func TestPCMFRejectsBadConfig(t *testing.T) {
	_, _, g := testEnv(t)
	if _, err := NewPCMF(g, PCMFConfig{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := NewPCMF(g, PCMFConfig{K: 8, LearningRate: -1}); err == nil {
		t.Error("negative LR accepted")
	}
}

func TestCBPFLearnsSignal(t *testing.T) {
	_, _, g := testEnv(t)
	cfg := DefaultCBPFConfig()
	cfg.K = 16
	cfg.Steps = 80000
	c, err := NewCBPF(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m := marginOverRandom(c, g); m <= 0 {
		t.Errorf("CBPF margin over random = %.2f, want positive", m)
	}
}

func TestCBPFFactorsStayPositive(t *testing.T) {
	_, _, g := testEnv(t)
	cfg := DefaultCBPFConfig()
	cfg.K = 8
	cfg.Steps = 20000
	c, err := NewCBPF(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*mat{c.users, c.words, c.locs, c.times} {
		for _, v := range m.data {
			if v < cbpfEps/2 || v != v {
				t.Fatalf("CBPF factor %v violates positivity", v)
			}
		}
	}
}

func TestCBPFEventIsAuxAverage(t *testing.T) {
	// The defining constraint: an event with identical auxiliary info to
	// another must have an identical representation, trained or not.
	d, _, g := testEnv(t)
	cfg := DefaultCBPFConfig()
	cfg.K = 8
	cfg.Steps = 5000
	c, err := NewCBPF(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = d
	a := make([]float32, cfg.K)
	b := make([]float32, cfg.K)
	c.eventInto(3, a)
	c.eventInto(3, b)
	for f := range a {
		if a[f] != b[f] {
			t.Fatal("eventInto is not deterministic")
		}
	}
	// Cached representation must match a fresh computation.
	for f := range a {
		if c.eventCache[3][f] != a[f] {
			t.Fatal("event cache stale")
		}
	}
}

func TestPERLearnsSignal(t *testing.T) {
	d, s, g := testEnv(t)
	cfg := DefaultPERConfig()
	cfg.FactorSteps = 300000
	cfg.Steps = 60000
	p, err := NewPER(d, s, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m := marginOverRandom(p, g); m <= 0 {
		t.Errorf("PER margin over random = %.2f, want positive", m)
	}
}

func TestPERColdEventDiffusionUsesOnlyContextPaths(t *testing.T) {
	d, s, g := testEnv(t)
	p, err := NewPER(d, s, g, PERConfig{Rank: 4, FactorSteps: 1000, LearningRate: 0.1, Steps: 1000, NegativePerPositive: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cold := s.TestEvents[0]
	if v := p.diffusion(pathUXUX, 0, cold); v != 0 {
		t.Errorf("cold event has UXUX diffusion %v", v)
	}
	if v := p.diffusion(pathUUX, 0, cold); v != 0 {
		t.Errorf("cold event has UUX diffusion %v", v)
	}
}

func TestPERFactorizationApproximatesDiffusion(t *testing.T) {
	// The factorized content-path score should correlate with the raw
	// diffusion values — the bottleneck blurs, it must not destroy. The
	// sampled edges are split at the bottom and top thirds of their raw
	// values, so both buckets are populated on every fixture.
	d, s, g := testEnv(t)
	cfg := DefaultPERConfig()
	cfg.FactorSteps = 400000
	cfg.Steps = 1000
	p, err := NewPER(d, s, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type sample struct{ raw, est float64 }
	var samples []sample
	for i := 0; i < g.UserEvent.NumEdges(); i += 3 {
		e := g.UserEvent.Edge(i)
		samples = append(samples, sample{float64(p.diffusion(pathUXCX, e.A, e.B)), float64(p.pathScore(pathUXCX, e.A, e.B))})
	}
	if len(samples) < 30 {
		t.Fatalf("only %d sampled edges", len(samples))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].raw < samples[j].raw })
	third := len(samples) / 3
	var lo, hi float64
	for i := 0; i < third; i++ {
		lo += samples[i].est
		hi += samples[len(samples)-1-i].est
	}
	if samples[third-1].raw >= samples[len(samples)-third].raw {
		t.Fatalf("raw diffusion is flat across the middle third (%.4f)", samples[third-1].raw)
	}
	t.Logf("mean factorized score: bottom third %.4f, top third %.4f", lo/float64(third), hi/float64(third))
	if hi <= lo {
		t.Errorf("factorized scores do not track diffusion: top third %.4f <= bottom third %.4f", hi/float64(third), lo/float64(third))
	}
}

// TestPERSameSeedSameWeights builds PER twice from one config and seed:
// the learned path weights must be bit-identical.
func TestPERSameSeedSameWeights(t *testing.T) {
	d, s, g := testEnv(t)
	cfg := DefaultPERConfig()
	cfg.FactorSteps = 400000
	cfg.Steps = 1000
	a, err := NewPER(d, s, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPER(d, s, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wa, wb := a.Weights(), b.Weights(); wa != wb {
		t.Errorf("same seed, different weights:\n%v\n%v", wa, wb)
	}
}

func TestPERRejectsBadConfig(t *testing.T) {
	d, s, g := testEnv(t)
	if _, err := NewPER(d, s, g, PERConfig{LearningRate: 0}); err == nil {
		t.Error("zero LR accepted")
	}
	if _, err := NewPER(d, s, g, PERConfig{LearningRate: 0.1, Rank: 0}); err == nil {
		t.Error("zero rank accepted")
	}
}

// fixedScorer gives every pair the same event preference, isolating the
// partner term in CFAPR-E tests.
type fixedScorer struct{}

func (fixedScorer) ScoreUserEvent(u, x int32) float32 { return 0.1 }

func TestCFAPREPartnerHistory(t *testing.T) {
	d, s, _ := testEnv(t)
	c, err := NewCFAPRE(d, s, fixedScorer{})
	if err != nil {
		t.Fatal(err)
	}
	// Find a pair with training co-attendance.
	var u, v int32 = -1, -1
	for _, x := range s.TrainEvents {
		users := d.EventUsers(x)
		if len(users) >= 2 {
			u, v = users[0], users[1]
			break
		}
	}
	if u < 0 {
		t.Skip("no co-attendance in tiny dataset")
	}
	if c.PartnerScore(u, v) <= 0 {
		t.Errorf("co-attending pair (%d,%d) has zero partner score", u, v)
	}
	if !c.HasHistory(u) {
		t.Error("HasHistory false for co-attending user")
	}
	// A user pair with no history must score zero — the paper's handicap.
	if c.PartnerScore(u, u+1) != 0 && c.coAttend[u][u+1] == 0 {
		t.Error("no-history pair has nonzero partner score")
	}
	// Triple score decomposes.
	want := float32(0.2) + c.PartnerScore(u, v)
	if got := c.ScoreTriple(u, v, 0); got != want {
		t.Errorf("ScoreTriple = %v, want %v", got, want)
	}
}

func TestCFAPRERequiresScorer(t *testing.T) {
	d, s, _ := testEnv(t)
	if _, err := NewCFAPRE(d, s, nil); err == nil {
		t.Error("nil event scorer accepted")
	}
}

func TestCFAPREMoreCoAttendanceScoresHigher(t *testing.T) {
	d, s, _ := testEnv(t)
	c, err := NewCFAPRE(d, s, fixedScorer{})
	if err != nil {
		t.Fatal(err)
	}
	// Log-damped counts are monotone.
	var best float32
	var bestPair [2]int32
	for u := int32(0); int(u) < d.NumUsers; u++ {
		for v, n := range c.coAttend[u] {
			if n > best {
				best = n
				bestPair = [2]int32{u, v}
			}
		}
	}
	if best < 2 {
		t.Skip("no pair with repeated co-attendance")
	}
	high := c.PartnerScore(bestPair[0], bestPair[1])
	// Find a pair with exactly one co-attendance.
	for u := int32(0); int(u) < d.NumUsers; u++ {
		for v, n := range c.coAttend[u] {
			if n == 1 {
				if low := c.PartnerScore(u, v); low >= high {
					t.Errorf("1-event pair scores %v >= %v of %v-event pair", low, high, best)
				}
				return
			}
		}
	}
}
