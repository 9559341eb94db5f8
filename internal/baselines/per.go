package baselines

import (
	"fmt"
	"math"
	"slices"

	"ebsn/internal/ebsnet"
	"ebsn/internal/graph"
	"ebsn/internal/rng"
	"ebsn/internal/timeslot"
)

// PERConfig parameterizes the meta-path baseline.
type PERConfig struct {
	// Rank is the latent dimension of each per-path factorization; the
	// original PER compresses every meta-path diffusion matrix to a
	// low-rank user/item factor pair (that compression is what blurs its
	// cold-start precision).
	Rank int
	// FactorSteps is the SGD budget for fitting the per-path factors.
	FactorSteps int64
	// LearningRate drives both the factorization and the logistic
	// weight learning.
	LearningRate float32
	// Steps is the budget for learning the path-combination weights.
	Steps int64
	// NegativePerPositive controls sampled non-attended events during
	// weight learning.
	NegativePerPositive int
	Seed                uint64
}

// DefaultPERConfig mirrors the shared training budget order of magnitude.
func DefaultPERConfig() PERConfig {
	return PERConfig{
		Rank:                12,
		FactorSteps:         3_000_000,
		LearningRate:        0.1,
		Steps:               200_000,
		NegativePerPositive: 2,
		Seed:                1,
	}
}

// The meta paths PER aggregates. Cold events are reachable only through
// the location/time/content paths — exactly the paper's observation that
// PER underuses collaborative signal on cold items.
// maxDiffusionAttendees bounds the attendees examined per collaborative
// diffusion estimate (larger events are stride-subsampled).
const maxDiffusionAttendees = 32

const (
	pathUXUX = iota // co-attendance: users similar to u attended x
	pathUUX         // social: friends of u attended x
	pathUXLX        // location: u attends events in x's region
	pathUXTX        // time: u attends events in x's time slots
	pathUXCX        // content: u attends events sharing x's words
	numPaths
)

// PER is the paper's PER baseline [34]: the EBSN modeled as a
// heterogeneous information network, user-event relevance expressed as
// diffusion along typed meta paths. Faithful to the original recipe, each
// path's diffusion matrix is factorized into rank-r user/event latent
// features, and a logistic combiner learns the per-path weights on
// training attendance. The factorization bottleneck — not the raw
// diffusion counts — is what the recommender sees, which reproduces PER's
// characteristic blur on cold events.
type PER struct {
	cfg PERConfig
	d   *ebsnet.Dataset
	s   *ebsnet.Split
	g   *ebsnet.Graphs

	// Per-user diffusion profiles over training attendance (targets for
	// the factorization).
	regionProfile []map[int32]float32
	slotProfile   []map[int32]float32
	wordProfile   []map[int32]float32

	// Per-path rank-r factors: userF[p] is |U|×r, eventF[p] is |X|×r.
	userF  [numPaths][]float32
	eventF [numPaths][]float32

	weights [numPaths + 1]float32 // +1 bias
}

// NewPER builds the diffusion profiles, factorizes each path, and learns
// the combination weights.
func NewPER(d *ebsnet.Dataset, s *ebsnet.Split, g *ebsnet.Graphs, cfg PERConfig) (*PER, error) {
	if cfg.LearningRate <= 0 || cfg.Steps < 0 || cfg.Rank <= 0 || cfg.FactorSteps < 0 {
		return nil, fmt.Errorf("baselines: invalid PER config %+v", cfg)
	}
	p := &PER{cfg: cfg, d: d, s: s, g: g}
	p.buildProfiles()
	p.factorizePaths()
	p.learnWeights()
	return p, nil
}

func (p *PER) buildProfiles() {
	n := p.d.NumUsers
	p.regionProfile = make([]map[int32]float32, n)
	p.slotProfile = make([]map[int32]float32, n)
	p.wordProfile = make([]map[int32]float32, n)
	for u := 0; u < n; u++ {
		reg := make(map[int32]float32)
		slot := make(map[int32]float32)
		word := make(map[int32]float32)
		count := 0
		for _, x := range p.d.UserEvents(int32(u)) {
			if !p.s.InTrain(x) {
				continue
			}
			count++
			reg[int32(p.g.EventRegion[x])]++
			for _, sl := range timeslot.Slots(p.d.Events[x].Start) {
				slot[sl]++
			}
			words, ws := p.g.EventWord.Neighbors(graph.SideA, x)
			for i, w := range words {
				word[w] += ws[i]
			}
		}
		if count > 0 {
			inv := 1 / float32(count)
			for k := range reg {
				reg[k] *= inv
			}
			for k := range slot {
				slot[k] *= inv
			}
			// Sum in word order: a float32 sum over map order would
			// change its last bits from run to run.
			keys := make([]int32, 0, len(word))
			for w := range word {
				keys = append(keys, w)
			}
			slices.Sort(keys)
			var norm float32
			for _, w := range keys {
				norm += word[w] * word[w]
			}
			if norm > 0 {
				s := 1 / float32(math.Sqrt(float64(norm)))
				for k := range word {
					word[k] *= s
				}
			}
		}
		p.regionProfile[u] = reg
		p.slotProfile[u] = slot
		p.wordProfile[u] = word
	}
}

// diffusion computes the raw meta-path diffusion value D_p(u, x) — the
// factorization target.
func (p *PER) diffusion(path int, u, x int32) float32 {
	switch path {
	case pathUXUX:
		attendees, _ := p.g.UserEvent.Neighbors(graph.SideB, x)
		if len(attendees) == 0 {
			return 0
		}
		// Large events are stride-subsampled: the diffusion value is a
		// fraction, and a few dozen attendees estimate it closely while
		// keeping city-scale factorization tractable.
		stride := 1 + len(attendees)/maxDiffusionAttendees
		common, seen := 0, 0
		for i := 0; i < len(attendees); i += stride {
			v := attendees[i]
			seen++
			if v != u && p.d.CommonEvents(u, v, p.s.InTrain) > 0 {
				common++
			}
		}
		return float32(common) / float32(seen)
	case pathUUX:
		attendees, _ := p.g.UserEvent.Neighbors(graph.SideB, x)
		if len(attendees) == 0 {
			return 0
		}
		stride := 1 + len(attendees)/maxDiffusionAttendees
		hits, seen := 0, 0
		for i := 0; i < len(attendees); i += stride {
			// Friendship comes from the trained user-user graph, not the
			// raw dataset, so scenario 2's removed links stay removed.
			seen++
			if p.g.UserUser.HasEdge(u, attendees[i]) {
				hits++
			}
		}
		return float32(hits) / float32(seen)
	case pathUXLX:
		return p.regionProfile[u][int32(p.g.EventRegion[x])]
	case pathUXTX:
		var sum float32
		for _, sl := range timeslot.Slots(p.d.Events[x].Start) {
			sum += p.slotProfile[u][sl]
		}
		return sum
	default: // pathUXCX
		words, ws := p.g.EventWord.Neighbors(graph.SideA, x)
		var dot, norm float32
		for i, w := range words {
			dot += p.wordProfile[u][w] * ws[i]
			norm += ws[i] * ws[i]
		}
		if norm == 0 {
			return 0
		}
		return dot / float32(math.Sqrt(float64(norm)))
	}
}

// factorizePaths fits rank-r factors to each path's diffusion matrix by
// SGD on squared error over sampled (u, x) pairs. Positive-attendance
// pairs are oversampled so the nonzero structure is covered; uniform
// pairs keep the zeros honest.
func (p *PER) factorizePaths() {
	src := rng.New(p.cfg.Seed ^ 0xfac)
	r := p.cfg.Rank
	nu, nx := p.d.NumUsers, p.d.NumEvents()
	for path := 0; path < numPaths; path++ {
		uf := make([]float32, nu*r)
		xf := make([]float32, nx*r)
		for i := range uf {
			uf[i] = float32(src.Gaussian(0, 0.1))
		}
		for i := range xf {
			xf[i] = float32(src.Gaussian(0, 0.1))
		}
		p.userF[path] = uf
		p.eventF[path] = xf
	}
	ux := p.g.UserEvent
	if ux.NumEdges() == 0 {
		return
	}
	lr := p.cfg.LearningRate
	for s := int64(0); s < p.cfg.FactorSteps; s++ {
		var u, x int32
		if s%2 == 0 {
			e := ux.SampleEdge(src)
			u, x = e.A, e.B
		} else {
			u = int32(src.Intn(nu))
			x = int32(src.Intn(nx))
		}
		path := int(s) % numPaths
		target := p.diffusion(path, u, x)
		uf := p.userF[path][int(u)*p.cfg.Rank : (int(u)+1)*p.cfg.Rank]
		xf := p.eventF[path][int(x)*p.cfg.Rank : (int(x)+1)*p.cfg.Rank]
		var pred float32
		for f := 0; f < p.cfg.Rank; f++ {
			pred += uf[f] * xf[f]
		}
		g := lr * (target - pred)
		for f := 0; f < p.cfg.Rank; f++ {
			ufv, xfv := uf[f], xf[f]
			uf[f] += g * xfv
			xf[f] += g * ufv
		}
	}
}

// pathScore is the factorized diffusion estimate for (u, x) on one path.
func (p *PER) pathScore(path int, u, x int32) float32 {
	r := p.cfg.Rank
	uf := p.userF[path][int(u)*r : (int(u)+1)*r]
	xf := p.eventF[path][int(x)*r : (int(x)+1)*r]
	var s float32
	for f := 0; f < r; f++ {
		s += uf[f] * xf[f]
	}
	return s
}

// learnWeights fits the logistic combiner over the factorized path scores
// on training attendance with sampled negatives.
func (p *PER) learnWeights() {
	src := rng.New(p.cfg.Seed)
	ux := p.g.UserEvent
	if ux.NumEdges() == 0 {
		return
	}
	var feats [numPaths]float32
	p.weights = [numPaths + 1]float32{}
	for s := int64(0); s < p.cfg.Steps; s++ {
		e := ux.SampleEdge(src)
		p.sgdStep(e.A, e.B, 1, &feats)
		for t := 0; t < p.cfg.NegativePerPositive; t++ {
			nx := int32(src.Intn(ux.NumB()))
			if ux.HasEdge(e.A, nx) {
				continue
			}
			p.sgdStep(e.A, nx, 0, &feats)
		}
	}
}

func (p *PER) fillFeatures(u, x int32, feats *[numPaths]float32) {
	for path := 0; path < numPaths; path++ {
		feats[path] = p.pathScore(path, u, x)
	}
}

func (p *PER) sgdStep(u, x int32, label float32, feats *[numPaths]float32) {
	p.fillFeatures(u, x, feats)
	z := p.weights[numPaths]
	for i := 0; i < numPaths; i++ {
		z += p.weights[i] * feats[i]
	}
	pred := 1 / (1 + float32(math.Exp(-float64(z))))
	g := p.cfg.LearningRate * (label - pred)
	for i := 0; i < numPaths; i++ {
		p.weights[i] += g * feats[i]
	}
	p.weights[numPaths] += g
}

// Weights exposes the learned path weights (diagnostics and tests).
func (p *PER) Weights() [numPaths + 1]float32 { return p.weights }

// ScoreUserEvent combines the factorized meta-path scores with the
// learned weights.
func (p *PER) ScoreUserEvent(u, x int32) float32 {
	var feats [numPaths]float32
	p.fillFeatures(u, x, &feats)
	z := p.weights[numPaths]
	for i := 0; i < numPaths; i++ {
		z += p.weights[i] * feats[i]
	}
	return z
}

// ScoreTriple applies the shared pairwise extension framework: both
// preferences plus a social-affinity feature from the trained user-user
// graph and shared training attendance.
func (p *PER) ScoreTriple(u, partner, x int32) float32 {
	social := float32(0)
	if p.g.UserUser.HasEdge(u, partner) {
		social = 1
	}
	common := p.d.CommonEvents(u, partner, p.s.InTrain)
	social += float32(common) / (1 + float32(common))
	return p.ScoreUserEvent(u, x) + p.ScoreUserEvent(partner, x) + social
}
