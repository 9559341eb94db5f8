package ta

// Constrained queries push an event filter *into* the threshold walk
// instead of post-filtering its output. Post-filtering an exact top-n is
// not exact: to guarantee n surviving results the caller must overfetch
// an unbounded amount (the filter may reject every one of the first N
// pairs for any fixed N). Pushing the filter down restores exactness and
// tightens the bound that drives early termination: the per-partner
// bound b(u') + amax + maxCross(u') uses amax = max over *allowed*
// events of a(x), which is ≤ the unconstrained maximum, while
// maxCross(u') remains a valid upper bound over the surviving subset of
// u's pairs. The constrained walk therefore terminates no later than the
// same constrained query run with the slack unconstrained bound — and,
// unlike post-filtering, it never re-ranks rejected pairs at all. (Its
// access counts are not comparable to the *unconstrained* query's: a
// filter that bans the easy winners legitimately walks deeper.) See
// DESIGN.md §3.10.

// EventPredicate restricts a top-n search to a subset of the candidate
// set's events: entry x reports whether event x (in candidate-set event
// indices) may appear in results. A nil predicate means unrestricted; a
// predicate allowing every event returns results bit-identical to nil —
// same pairs, same score bits, same tie order. A non-nil predicate's
// length must equal the candidate set's event count, plus the delta's
// when the query carries one (BatchQuery.Pred).
type EventPredicate []bool

// Selectivity returns the allowed-event fraction in [0, 1]; a nil
// predicate is fully permissive and returns 1.
func (p EventPredicate) Selectivity() float64 {
	if p == nil {
		return 1
	}
	if len(p) == 0 {
		return 0
	}
	allowed := 0
	for _, ok := range p {
		if ok {
			allowed++
		}
	}
	return float64(allowed) / float64(len(p))
}
