package ta

import (
	"math"
	"slices"
	"testing"

	"ebsn/internal/rng"
	"ebsn/internal/vecmath"
)

// referenceTopNExcluding is a direct port of the pre-optimization
// FastIndex query path: per-row vecmath.Dot affinity passes, a full
// descending sort of every partner bound, and fresh allocations for all
// per-query state. Dot and DotBatch share one accumulation kernel, so
// the optimized path must reproduce these results bit for bit.
func referenceTopNExcluding(f *FastIndex, userVec []float32, n int, exclude int32) []Result {
	set := f.set
	nc := len(set.Pairs)
	if n <= 0 || nc == 0 {
		return nil
	}
	if n > nc {
		n = nc
	}

	a := make([]float32, len(set.Events))
	var amax float32
	for x := range set.Events {
		a[x] = vecmath.Dot(userVec, set.Events[x])
		if x == 0 || a[x] > amax {
			amax = a[x]
		}
	}
	b := make([]float32, len(set.Partners))
	for u := range set.Partners {
		b[u] = vecmath.Dot(userVec, set.Partners[u])
	}

	bounds := make([]partnerBound, 0, len(set.Partners))
	for u := range set.Partners {
		if f.partnerStart[u] == f.partnerStart[u+1] {
			continue
		}
		bounds = append(bounds, partnerBound{int32(u), b[u] + amax + f.maxCross[u]})
	}
	slices.SortFunc(bounds, func(x, y partnerBound) int {
		switch {
		case x.bound > y.bound:
			return -1
		case x.bound < y.bound:
			return 1
		default:
			return int(x.u - y.u)
		}
	})

	var h resultHeap
	for _, pb := range bounds {
		if len(h) == n && h[0].Score >= pb.bound {
			break
		}
		if pb.u == exclude {
			continue
		}
		u := pb.u
		for oi := f.partnerStart[u]; oi < f.partnerStart[u+1]; oi++ {
			i := f.order[oi]
			s := a[set.Pairs[i].Event] + b[u] + set.Cross[i]
			if len(h) < n {
				h.push(Result{set.Pairs[i].Event, u, s})
			} else if s > h[0].Score {
				h.replaceMin(Result{set.Pairs[i].Event, u, s})
			}
		}
	}
	return h.drainDescending(nil)
}

func resultsBitIdentical(t *testing.T, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("result count: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Event != got[i].Event || want[i].Partner != got[i].Partner {
			t.Fatalf("result %d: got pair (%d,%d), want (%d,%d)",
				i, got[i].Event, got[i].Partner, want[i].Event, want[i].Partner)
		}
		wb := math.Float32bits(want[i].Score)
		gb := math.Float32bits(got[i].Score)
		if wb != gb {
			t.Fatalf("result %d score bits: got %#x (%v), want %#x (%v)",
				i, gb, got[i].Score, wb, want[i].Score)
		}
	}
}

// TestTopNExcludingBitIdenticalToReference checks that the pooled-
// scratch query path — packed DotBatch affinities, lazy bound heap,
// reused result buffers — returns results bit-identical to the
// pre-pool implementation across randomized candidate sets, query
// vectors, result sizes, and exclusions. One scratch is reused across
// every query to also exercise warm-buffer reuse.
func TestTopNExcludingBitIdenticalToReference(t *testing.T) {
	src := rng.New(411)
	sc := GetScratch()
	defer PutScratch(sc)
	shapes := []struct {
		nx, nu, k, topK int
	}{
		{17, 9, 5, 0},
		{40, 25, 8, 6},
		{3, 50, 12, 1},
		{64, 31, 16, 10},
		{25, 25, 7, 25}, // topK == |X|: unpruned
	}
	for _, sh := range shapes {
		events := randomVecs(src, sh.nx, sh.k, true)
		partners := randomVecs(src, sh.nu, sh.k, true)
		cs, err := BuildCandidates(events, partners, BuildConfig{TopKEvents: sh.topK, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		f := NewFastIndex(cs)
		for q := 0; q < 20; q++ {
			userVec := randomVecs(src, 1, sh.k, true)[0]
			n := 1 + src.Intn(len(cs.Pairs)+3)
			exclude := int32(src.Intn(sh.nu+2)) - 1
			want := referenceTopNExcluding(f, userVec, n, exclude)

			got, _ := f.TopNExcludingScratch(userVec, n, exclude, sc)
			resultsBitIdentical(t, want, got)

			// The allocating convenience wrapper must agree too.
			if exclude < 0 {
				got2, _ := f.TopN(userVec, n)
				resultsBitIdentical(t, want, got2)
			}
		}
	}
}

// TestDynamicScratchMatchesPooled checks that the two-tier answer does
// not depend on the scratch's history: a scratch reused across queries
// returns what a fresh one does after delta arrivals.
func TestDynamicScratchMatchesPooled(t *testing.T) {
	src := rng.New(412)
	events := randomVecs(src, 30, 9, true)
	partners := randomVecs(src, 20, 9, true)
	cs, err := BuildCandidates(events, partners, BuildConfig{TopKEvents: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := newTwoTier(cs, 8)
	for _, v := range randomVecs(src, 7, 9, true) {
		if err := d.AddEvent(v); err != nil {
			t.Fatal(err)
		}
	}
	sc := GetScratch()
	defer PutScratch(sc)
	for q := 0; q < 10; q++ {
		userVec := randomVecs(src, 1, 9, true)[0]
		want, _ := d.TopNExcluding(userVec, 12, int32(q%len(partners)), new(Scratch))
		got, _ := d.TopNExcluding(userVec, 12, int32(q%len(partners)), sc)
		if !slices.Equal(want, got) {
			t.Fatalf("query %d: got %+v, want %+v", q, got, want)
		}
	}
}
