package workload

import (
	"fmt"

	"ebsn/internal/vecmath"
)

// FeedPartner is one recommended companion for a feed event.
type FeedPartner struct {
	// Partner is the companion's user ID.
	Partner int32 `json:"partner"`
	// Score is the full joint score of Eqn. 8 for (user, partner, event):
	// u·x + u·u' + x·u'.
	Score float32 `json:"score"`
}

// FeedItem is one entry of a user's "for you" feed: an event joined
// with the companions it is best attended with.
type FeedItem struct {
	// Event is the event ID (dataset space).
	Event int32 `json:"event"`
	// Score is the user's own affinity u·x for the event — the key the
	// feed is ordered by.
	Score float32 `json:"score"`
	// Partners holds the top companions for this event, best first.
	Partners []FeedPartner `json:"partners"`
}

// joinBlockRows is how many partner rows one panel pass of JoinPartners
// covers: a 256 × 60 float32 block (61 KB) stays in L2 across the
// panel's query groups, and its b × 256 scores stay in L1 for the
// selection that follows.
const joinBlockRows = 256

// JoinPartners ranks every partner for each of a feed's events and
// returns, per event, the top m by the joint score of Eqn. 8. For a
// fixed event x the partner-dependent part collapses to one dot product:
//
//	u·u' + x·u' = (u + x)·u'
//
// so the join is one pass over the partner rows with the combined
// queries q_i = u + x_i packed as a vecmath.DotPanel, plus the constant
// u·x_i per event. partners is the packed row-major partner matrix
// (len(userVec) floats per row), streamed once in blocks of
// joinBlockRows rows. Each lane is DotPanel-exact, so every score is
// bit-identical to base + Dot(q_i, u'). Ties break by ascending partner
// ID (the repo's canonical order). exclude drops one partner — the
// querying user, whose self-pair is degenerate. The returned lists are
// freshly allocated and indexed like events.
func JoinPartners(userVec []float32, events [][]float32, partners []float32, exclude int32, m int) [][]FeedPartner {
	k := len(userVec)
	b := len(events)
	if k == 0 || len(partners)%k != 0 {
		panic(fmt.Sprintf("workload: %d partner floats are not rows of dim %d", len(partners), k))
	}
	qs := make([]float32, b*k)
	base := make([]float32, b)
	for i, x := range events {
		if len(x) != k {
			panic(fmt.Sprintf("workload: event dim %d, want %d", len(x), k))
		}
		q := qs[i*k : (i+1)*k]
		for f := range q {
			q[f] = userVec[f] + x[f]
		}
		base[i] = vecmath.Dot(userVec, x)
	}
	rows := len(partners) / k
	m = max(min(m, rows), 0)
	best := make([][]FeedPartner, b)
	slab := make([]FeedPartner, b*m)
	for i := range best {
		best[i] = slab[i*m : i*m : (i+1)*m]
	}
	scores := make([]float32, b*min(joinBlockRows, rows))
	for lo := 0; lo < rows && m > 0; lo += joinBlockRows {
		hi := min(lo+joinBlockRows, rows)
		nr := hi - lo
		out := scores[:b*nr]
		vecmath.DotPanel(qs, b, partners[lo*k:hi*k], k, out)
		for i := range best {
			best[i] = insertTop(best[i], base[i], out[i*nr:(i+1)*nr], int32(lo), exclude)
		}
	}
	return best
}

// insertTop folds one block of partner scores (partner lo+j scoring
// base + dots[j]) into best, a descending top-cap(best) list, by strict->
// insertion in ascending partner order — so on equal scores the earlier
// partner keeps its place.
func insertTop(best []FeedPartner, base float32, dots []float32, lo, exclude int32) []FeedPartner {
	m := cap(best)
	for j, d := range dots {
		u := lo + int32(j)
		if u == exclude {
			continue
		}
		s := base + d
		up := len(best)
		switch {
		case up < m:
			best = append(best, FeedPartner{u, s})
		case s > best[m-1].Score:
			up = m - 1
			best[up] = FeedPartner{u, s}
		default:
			continue
		}
		for ; up > 0 && best[up].Score > best[up-1].Score; up-- {
			best[up], best[up-1] = best[up-1], best[up]
		}
	}
	return best
}
