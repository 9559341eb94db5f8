package ta

import (
	"fmt"
	"slices"

	"ebsn/internal/isort"
	"ebsn/internal/vecmath"
)

// Delta is the small mutable tier of the two-tier (LSM-flavored) index:
// events that arrive after the packed main index was built accumulate
// here, pruned to their topK partner pairs exactly as the offline build
// prunes, and every query lane scans the delta after its walk (it is
// small by construction — compaction folds it into a fresh main index
// before it grows). The scan costs one dot product per delta event; the
// partner affinities come from the lane's own partner pass, and a pair
// costs one bound check, plus one add and one compare when the bound
// lets it through (see BatchQuery.Delta). A Delta only ever appends to
// its event/pair arrays, so a DeltaView captured at any point stays
// valid while later arrivals land; Advance (called when a compaction of
// that view is installed) is the one operation that rewrites the arrays
// and must be serialized with both AddEvent and queries by the caller.
type Delta struct {
	k    int
	topK int

	// The partner count and the partners' packed row-major rows, which
	// every arriving event's pruning scores and cross terms stream
	// (vecmath.DotPanel).
	np          int
	partnerData []float32

	// Appended state. pairs[i].Event indexes events; pairs are grouped
	// by event in arrival order with partners ascending inside a group.
	events [][]float32
	pairs  []Candidate
	cross  []float32

	// The pairs' distinct partners in first-appearance order, each
	// pair's slot in that list, and each slot's largest cross term — the
	// per-partner bound a query's scan skips pairs under. slotOf maps a
	// partner to its slot + 1 (0 = absent); only the writers read it.
	distinct []int32
	pairSlot []int32
	slotMax  []float32
	slotOf   []int32

	folded int // events dropped by Advance since creation
}

// NewDelta builds a delta over copies of the given partner rows; topK
// bounds the pairs added per arriving event (0 = all partners). Use
// NewDeltaForSet when a packed CandidateSet over the same partners
// already exists.
func NewDelta(partners [][]float32, topK int) (*Delta, error) {
	if len(partners) == 0 {
		return nil, fmt.Errorf("ta: empty partner set")
	}
	k := len(partners[0])
	for _, v := range partners {
		if len(v) != k {
			return nil, fmt.Errorf("ta: partner vector length %d, want %d", len(v), k)
		}
	}
	data := slices.Concat(partners...) // packed row-major
	return &Delta{k: k, topK: topK, np: len(partners), partnerData: data, slotOf: make([]int32, len(partners))}, nil
}

// NewDeltaForSet builds a delta sharing the set's partner rows and
// packed storage (no copy). The set must already be packed — any index
// constructor packs it.
func NewDeltaForSet(set *CandidateSet, topK int) *Delta {
	np := len(set.Partners)
	return &Delta{k: set.K, topK: topK, np: np, partnerData: set.partnerData, slotOf: make([]int32, np)}
}

// K returns the embedding dimension arriving vectors must match.
func (d *Delta) K() int { return d.k }

// Events returns the number of events currently in the delta.
func (d *Delta) Events() int { return len(d.events) }

// PairCount returns the number of unindexed candidate pairs — the
// compaction queue depth, and the pairs every query lane checks against
// their partner bounds.
func (d *Delta) PairCount() int { return len(d.pairs) }

// Folded returns how many delta events Advance has dropped since the
// delta was created (the events already folded into some main index).
func (d *Delta) Folded() int { return d.folded }

// AddEvent registers a newly arrived event vector: AddEvents of one.
func (d *Delta) AddEvent(vec []float32) error { return d.AddEvents([][]float32{vec}) }

// addPanelEvents is how many events AddEvents scores per pass over the
// partner rows: the 4-lane panel kernel's width. A wider panel would
// only make more passes, so the score scratch stays at four rows
// (190 KB at 11 890 partners) however large the batch.
const addPanelEvents = 4

// AddEvents registers newly arrived event vectors in order, exactly as
// that many AddEvent calls would. Each event's candidate pairs are the
// topK partners by the partner-preference score u'·x (the same pruning
// rule the offline build uses), or all partners when topK ≤ 0. Every
// four events share one vecmath.DotPanel pass over the packed partner
// rows, which is bit-identical to a DotBatch per event, so batching
// changes no pair and no cross term. The vectors are copied, so the
// caller may reuse its slices. A vector of the wrong length fails the
// whole batch before anything is added.
func (d *Delta) AddEvents(vecs [][]float32) error {
	for _, v := range vecs {
		if len(v) != d.k {
			return fmt.Errorf("ta: event vector length %d, want %d", len(v), d.k)
		}
	}
	np := d.np
	scores := make([]float32, min(len(vecs), addPanelEvents)*np)
	ids := make([]int32, np)
	for lo := 0; lo < len(vecs); lo += addPanelEvents {
		batch := vecs[lo:min(lo+addPanelEvents, len(vecs))]
		// The packed query panel doubles as the events' stored copies.
		qs := slices.Concat(batch...)
		vecmath.DotPanel(qs, len(batch), d.partnerData, d.k, scores[:len(batch)*np])
		for i := range batch {
			eventIdx := int32(len(d.events))
			d.events = append(d.events, qs[i*d.k:(i+1)*d.k:(i+1)*d.k])
			// One score row covers both the pruning scores and the cross
			// terms of the retained pairs.
			row := scores[i*np : (i+1)*np]
			for _, u := range d.partnerIndices(row, ids) {
				d.addPair(eventIdx, u, row[u])
			}
		}
	}
	return nil
}

// addPair appends one candidate pair with its cross term, giving its
// partner a slot in the distinct list on first appearance and raising
// the slot's largest cross term.
func (d *Delta) addPair(event, partner int32, cross float32) {
	slot := d.slotOf[partner]
	if slot == 0 {
		d.distinct = append(d.distinct, partner)
		d.slotMax = append(d.slotMax, cross)
		slot = int32(len(d.distinct))
		d.slotOf[partner] = slot
	} else if cross > d.slotMax[slot-1] {
		d.slotMax[slot-1] = cross
	}
	d.pairs = append(d.pairs, Candidate{Event: event, Partner: partner})
	d.cross = append(d.cross, cross)
	d.pairSlot = append(d.pairSlot, slot-1)
}

// partnerIndices returns the partners whose candidate list the new event
// joins, in ascending order, given the per-partner preference scores
// u'·x: everyone when unpruned, else the topK by score — selected in
// O(P) rather than by a full O(P log P) sort. A heap pass answers when
// the topK-th score is untied; otherwise quickselect decides which tied
// partners make the cut, as it always has. ids is scratch of one entry
// per partner, overwritten; the result aliases it.
func (d *Delta) partnerIndices(scores []float32, ids []int32) []int32 {
	n := d.np
	if d.topK <= 0 || d.topK >= n {
		for i := range ids {
			ids[i] = int32(i)
		}
		return ids
	}
	out, ok := isort.SelectTopUnique(scores, d.topK, ids)
	if !ok {
		for i := range ids {
			ids[i] = int32(i)
		}
		isort.SelectAsc(ids, scores, n-d.topK)
		out = ids[n-d.topK:]
	}
	slices.Sort(out)
	return out
}

// DeltaView is an immutable prefix snapshot of a Delta: the events and
// pairs present when View was called. Later AddEvent calls only append
// past the captured lengths (or reallocate), so a view stays readable
// without locks while ingestion continues — the property the background
// compaction relies on.
type DeltaView struct {
	// Events holds the snapshot's event vectors in arrival order.
	Events [][]float32
	// Pairs are the snapshot's candidate pairs; Event indexes Events.
	Pairs []Candidate
	// Cross holds x·u' per pair, computed at arrival time.
	Cross []float32
}

// View captures the current delta contents as an immutable snapshot.
// Must be serialized with AddEvent/Advance (the same writer lock that
// guards them); the returned view may then be read without locks.
func (d *Delta) View() DeltaView {
	return DeltaView{
		Events: d.events[:len(d.events):len(d.events)],
		Pairs:  d.pairs[:len(d.pairs):len(d.pairs)],
		Cross:  d.cross[:len(d.cross):len(d.cross)],
	}
}

// Advance drops the view's prefix — just folded into a new main index —
// keeping only events that arrived after the view was captured, with
// their pair Event indices rebased and the distinct-partner list and its
// cross-term bounds rebuilt from the residual pairs. Residuals are
// copied into fresh arrays so in-flight readers of the old ones are
// unaffected. The view must have been captured from this delta; the
// caller serializes Advance with AddEvent and queries.
func (d *Delta) Advance(v DeltaView) {
	ke, kp := len(v.Events), len(v.Pairs)
	d.events = append(make([][]float32, 0, len(d.events)-ke), d.events[ke:]...)
	rest, restCross := d.pairs[kp:], d.cross[kp:]
	for _, u := range d.distinct {
		d.slotOf[u] = 0
	}
	d.pairs = make([]Candidate, 0, len(rest))
	d.cross = make([]float32, 0, len(rest))
	d.pairSlot = make([]int32, 0, len(rest))
	d.distinct, d.slotMax = nil, nil
	for i, p := range rest {
		d.addPair(p.Event-int32(ke), p.Partner, restCross[i])
	}
	d.folded += ke
}

// scan is a lane's delta tier: after the lane's walk over the base has
// left the base's exact top n in sc.results, it offers the heap every
// delta pair whose partner lies in [lo, lo+len(b)) and is not exclude,
// so the heap ends holding the top n of base ∪ delta. user is the
// lane's query vector and b its partner affinities from the lane's own
// partner pass, indexed by partner − lo; results name partners the same
// way. A delta event at position i comes back as event nx+i, the index
// it gets once a fold appends it to an nx-event base, so rankings — tie
// breaks included — are the same before and after a fold.
//
// a(x) = user·x is one vecmath.Dot per delta event, the bits the folded
// index's event pass gives it, and a pair scores (a(x) + b(u')) + cross,
// the walk's operand order, so a delta pair's score is bit-identical to
// the one the folded index will assign it. A pair is skipped unscored
// when the heap is full and its weakest entry scores strictly more than
// the pair's partner bound (amax + b(u')) + maxCross(u'), where amax is
// the largest a(x) and maxCross(u') the largest cross term over the
// partner's delta pairs. Float addition is monotone, so the bound is at
// least every one of the partner's pair scores; the strict test is the
// walk's own stop rule, so a pair that ties the n-th score still reaches
// Outranks. stats counts the pairs in range as Candidates and the
// scored ones as RandomAccesses.
// pred, when non-nil, covers the nx base events, then the delta's: amax
// ranges over the allowed delta events, and a refused pair is skipped
// before its bound check, so it is never scored.
func (d *Delta) scan(user, b []float32, lo int32, nx, n int, exclude int32, pred EventPredicate, sc *Scratch, stats *SearchStats) {
	if len(d.pairs) == 0 {
		return
	}
	a := resizeF32(sc.deltaA, len(d.events))
	amax := negInf
	for x, vec := range d.events {
		if pred != nil && !pred[nx+x] {
			continue // no pair of a refused event is scored
		}
		a[x] = vecmath.Dot(user, vec)
		if a[x] > amax {
			amax = a[x]
		}
	}
	sc.deltaA = a

	h := &sc.results
	nu := uint32(len(b))
	for i, p := range d.pairs {
		u := p.Partner - lo
		if uint32(u) >= nu {
			continue // another shard's partner
		}
		stats.Candidates++
		if u == exclude || pred != nil && !pred[nx+int(p.Event)] {
			continue
		}
		bu := b[u]
		if len(*h) == n && (*h)[0].Score > (amax+bu)+d.slotMax[d.pairSlot[i]] {
			continue // cannot beat the current top n
		}
		stats.RandomAccesses++
		r := Result{int32(nx) + p.Event, u, a[p.Event] + bu + d.cross[i]}
		if len(*h) < n {
			h.push(r)
		} else if r.Outranks((*h)[0]) {
			h.replaceMin(r)
		}
	}
}

// FoldDelta builds a fresh candidate set and index covering base plus
// the delta view, without mutating either, so queries over base (and
// appends to the delta past the view) proceed concurrently while the
// fold runs. Event rows are copied into new packed storage with the
// delta events appended after the base events in arrival order — a
// delta event at position i lands at index len(base.Events)+i, the same
// index a lane's delta scan ranks it under — and their pairs keep the
// cross terms computed at arrival, so answers are bit-identical before
// and after a fold. The partner rows do not change, so the folded set
// shares the base's packed partner storage and its artifact pin: a
// mapped base's pages stay mapped while the fold serves. The view's
// partner IDs index base.Partners (the sharded engine hands each shard
// its own slice of the view). workers bounds the index-build
// parallelism (0 = GOMAXPROCS, the NewFastIndexWorkers default).
func FoldDelta(base *CandidateSet, v DeltaView, workers int) (*CandidateSet, *FastIndex) {
	nb := len(base.Events)
	pairs := make([]Candidate, len(base.Pairs), len(base.Pairs)+len(v.Pairs))
	copy(pairs, base.Pairs)
	for _, p := range v.Pairs {
		pairs = append(pairs, Candidate{Event: p.Event + int32(nb), Partner: p.Partner})
	}
	set := &CandidateSet{
		K:           base.K,
		Events:      slices.Concat(base.Events, v.Events),
		Partners:    base.Partners,
		Pairs:       pairs,
		Cross:       slices.Concat(base.Cross, v.Cross),
		partnerData: base.partnerData,
		owner:       base.owner,
	}
	return set, NewFastIndexWorkers(set, workers)
}
