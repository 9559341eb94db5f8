package ta

import (
	"fmt"
	"slices"
	"time"

	"ebsn/internal/isort"
	"ebsn/internal/vecmath"
)

// Delta is the small mutable tier of the two-tier (LSM-flavored) index:
// events that arrive after the packed main index was built accumulate
// here, pruned to their topK partner pairs exactly as the offline build
// prunes, and every query scans the delta exhaustively (it is small by
// construction — compaction folds it into a fresh main index before it
// grows). The scan costs one dot product per delta event and one per
// distinct delta partner, then one add and one compare per pair (see
// MergeTopN). A Delta only ever appends to its event/pair arrays, so a
// DeltaView captured at any point stays valid while later arrivals land;
// Advance (called when a compaction of that view is installed) is the
// one operation that rewrites the arrays and must be serialized with
// both AddEvent and queries by the caller.
type Delta struct {
	k    int
	topK int

	// Partner rows and their packed row-major mirror, shared by every
	// event that arrives: pruning scores and cross terms stream the
	// packed array (vecmath.DotBatch), query-time partner affinities
	// read the rows.
	partners    [][]float32
	partnerData []float32

	// Appended state. pairs[i].Event indexes events; pairs are grouped
	// by event in arrival order with partners ascending inside a group.
	events [][]float32
	pairs  []Candidate
	cross  []float32

	// The pairs' distinct partners in first-appearance order, and each
	// pair's slot in that list: a query computes u·u' once per slot.
	// slotOf maps a partner to its slot + 1 (0 = absent); only the
	// writers read it.
	distinct []int32
	pairSlot []int32
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
	rows := make([][]float32, len(partners))
	copy(rows, partners)
	d := &Delta{k: k, topK: topK, partners: rows, slotOf: make([]int32, len(rows))}
	for _, v := range rows {
		if len(v) != k {
			return nil, fmt.Errorf("ta: partner vector length %d, want %d", len(v), k)
		}
	}
	d.partnerData = packRows(rows, k, nil)
	return d, nil
}

// NewDeltaForSet builds a delta sharing the set's partner rows and
// packed storage (no copy). The set must already be packed — any index
// constructor packs it.
func NewDeltaForSet(set *CandidateSet, topK int) *Delta {
	return &Delta{k: set.K, topK: topK, partners: set.Partners, partnerData: set.partnerData, slotOf: make([]int32, len(set.Partners))}
}

// K returns the embedding dimension arriving vectors must match.
func (d *Delta) K() int { return d.k }

// Events returns the number of events currently in the delta.
func (d *Delta) Events() int { return len(d.events) }

// PairCount returns the number of unindexed candidate pairs — the
// compaction queue depth, and the pairs every query scans at one add
// and one compare each.
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
	np := len(d.partners)
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
// partner a slot in the distinct list on first appearance.
func (d *Delta) addPair(event, partner int32, cross float32) {
	slot := d.slotOf[partner]
	if slot == 0 {
		d.distinct = append(d.distinct, partner)
		slot = int32(len(d.distinct))
		d.slotOf[partner] = slot
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
	n := len(d.partners)
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
// their pair Event indices rebased and the distinct-partner list rebuilt
// from the residual pairs. Residuals are copied into fresh arrays so
// in-flight readers of the old ones are unaffected. The view must have
// been captured from this delta; the caller serializes Advance with
// AddEvent and queries.
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
	d.distinct = nil
	for i, p := range rest {
		d.addPair(p.Event-int32(ke), p.Partner, restCross[i])
	}
	d.folded += ke
}

// DynamicResult tags a Result with whether the event came from the delta
// (its Event index then refers to arrival order, not the base set).
type DynamicResult struct {
	Result
	FromDelta bool
}

// MergeTopN merges base — an exact top-n over some main index, in
// canonical order — with an exhaustive scan of the delta, returning the
// overall top n (nothing when n ≤ 0). baseEvents is the main index's
// event count: a delta event's effective index in the canonical (score
// desc, partner asc, event asc) order is baseEvents + its delta position,
// which is exactly the index it will hold after compaction — so
// rankings, including tie breaks, are bit-consistent before and after a
// fold. Results alias sc's buffers; stats accumulates the delta-scan
// work and time.
//
// The scan computes u·x once per delta event and u·u' once per distinct
// delta partner, then costs one add and one compare per pair: the result
// starts as base and a pair is inserted, by shifting, only when it
// outranks the current n-th entry. Every key is unique — distinct
// (event, partner) pairs, delta events numbered past the base — so this
// bounded selection equals a stable sort of base plus every delta pair,
// truncated to n.
func (d *Delta) MergeTopN(base []Result, baseEvents int, userVec []float32, n int, exclude int32, sc *Scratch, stats *SearchStats) []DynamicResult {
	if n <= 0 {
		return sc.dout[:0]
	}
	start := time.Now()
	a := resizeF32(sc.deltaA, len(d.events))
	for x, vec := range d.events {
		a[x] = vecmath.Dot(userVec, vec)
	}
	b := resizeF32(sc.deltaB, len(d.distinct))
	for slot, u := range d.distinct {
		b[slot] = vecmath.Dot(userVec, d.partners[u])
	}
	sc.deltaA, sc.deltaB = a, b

	// Delta entries carry their effective event index until the end, so
	// Outranks compares every entry by its canonical key.
	be := int32(baseEvents)
	out := sc.dout[:0]
	for _, r := range base[:min(len(base), n)] {
		out = append(out, DynamicResult{Result: r})
	}
	for i, pair := range d.pairs {
		if pair.Partner == exclude {
			continue
		}
		stats.RandomAccesses++
		// Operand order matters: the FastIndex scores a pair as
		// (event·u + partner·u) + cross, and float addition is not
		// associative — summing in the same order keeps a delta pair's
		// score bit-identical to what the folded index will assign it.
		r := Result{Event: pair.Event + be, Partner: pair.Partner, Score: a[pair.Event] + b[d.pairSlot[i]] + d.cross[i]}
		if len(out) == n {
			if !r.Outranks(out[n-1].Result) {
				continue
			}
			out = out[:n-1]
		}
		j := len(out)
		out = append(out, DynamicResult{})
		for ; j > 0 && r.Outranks(out[j-1].Result); j-- {
			out[j] = out[j-1]
		}
		out[j] = DynamicResult{Result: r, FromDelta: true}
	}
	for i := range out {
		if out[i].FromDelta {
			out[i].Event -= be
		}
	}
	stats.Candidates += len(d.pairs)
	stats.Elapsed += time.Since(start)
	sc.dout = out
	return out
}

// FoldDelta builds a fresh candidate set and index covering base plus
// the delta view, without mutating either: event and partner row headers
// are copied into new containers before the index build re-aliases them
// into new packed storage, so queries over base (and appends to the
// delta past the view) proceed concurrently while the fold runs. Delta
// events are appended after the base events in arrival order — a delta
// event at position i lands at index len(base.Events)+i, the same
// effective index MergeTopN ranks it under — and their pairs keep the
// cross terms computed at arrival, so answers are bit-identical before
// and after a fold. The view's partner IDs index base.Partners (the
// sharded engine hands each shard its own slice of the view). workers
// bounds the index-build parallelism (0 = GOMAXPROCS, the
// NewFastIndexWorkers default).
func FoldDelta(base *CandidateSet, v DeltaView, workers int) (*CandidateSet, *FastIndex) {
	nb := len(base.Events)
	pairs := make([]Candidate, len(base.Pairs), len(base.Pairs)+len(v.Pairs))
	copy(pairs, base.Pairs)
	for _, p := range v.Pairs {
		pairs = append(pairs, Candidate{Event: p.Event + int32(nb), Partner: p.Partner})
	}
	set := &CandidateSet{
		K:        base.K,
		Events:   slices.Concat(base.Events, v.Events),
		Partners: slices.Clone(base.Partners),
		Pairs:    pairs,
		Cross:    slices.Concat(base.Cross, v.Cross),
	}
	return set, NewFastIndexWorkers(set, workers)
}
