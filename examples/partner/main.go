// Joint event-partner recommendation with the Threshold Algorithm: the
// paper's Section IV pipeline. This example builds the transformed
// candidate space over (cold events × all users), compares TA queries
// against brute force, and sweeps the per-partner top-k pruning — a
// miniature of Table VI and Figure 7.
//
//	go run ./examples/partner
package main

import (
	"fmt"
	"log"
	"time"

	"ebsn"
)

func main() {
	rec, err := ebsn.New(ebsn.Config{
		City:    ebsn.CityTiny,
		Seed:    3,
		Variant: ebsn.GEMA,
		Threads: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	d := rec.Dataset()
	testEvents := len(rec.Split().TestEvents)
	fullPairs := testEvents * d.NumUsers
	fmt.Printf("candidate space: %d cold events x %d users = %d event-partner pairs\n\n",
		testEvents, d.NumUsers, fullPairs)

	users := sampleUsers(d.NumUsers, 20)

	// Full space first: every pair is a candidate.
	if err := rec.PrepareJoint(0); err != nil {
		log.Fatal(err)
	}
	fullTime, fullResults := timeQueries(rec, users)
	fmt.Printf("full space   : avg TA query %v\n", fullTime)

	// Pruned spaces: each partner contributes only their top-k events.
	for _, pct := range []int{2, 5, 10} {
		k := testEvents * pct / 100
		if k < 1 {
			k = 1
		}
		if err := rec.PrepareJoint(k); err != nil {
			log.Fatal(err)
		}
		prunedTime, prunedResults := timeQueries(rec, users)
		fmt.Printf("top-%d (%d%%) : avg TA query %v, approximation ratio %.3f\n",
			k, pct, prunedTime, overlap(fullResults, prunedResults))
	}

	// Show one user's final recommendations from the last pruned space.
	u := users[0]
	lanes, _, err := rec.Recommend([]int32{u}, 5, ebsn.Constraint{})
	if err != nil {
		log.Fatal(err)
	}
	pairs := lanes[0]
	fmt.Printf("\nuser %d's event-partner recommendations:\n", u)
	for i, p := range pairs {
		rel := "new person"
		if d.AreFriends(u, p.Partner) {
			rel = "friend"
		}
		fmt.Printf("  %d. event %d with user %d (%s, score %.3f)\n",
			i+1, p.Event, p.Partner, rel, p.Score)
	}
}

func sampleUsers(n, want int) []int32 {
	stride := n / want
	if stride < 1 {
		stride = 1
	}
	var out []int32
	for u := 0; u < n && len(out) < want; u += stride {
		out = append(out, int32(u))
	}
	return out
}

// timeQueries issues one top-10 query per user and returns the average
// latency plus each user's result set for overlap computation.
func timeQueries(rec *ebsn.Recommender, users []int32) (time.Duration, map[int32]map[[2]int32]bool) {
	results := make(map[int32]map[[2]int32]bool, len(users))
	start := time.Now()
	for _, u := range users {
		lanes, _, err := rec.Recommend([]int32{u}, 10, ebsn.Constraint{})
		if err != nil {
			log.Fatal(err)
		}
		set := make(map[[2]int32]bool, len(lanes[0]))
		for _, p := range lanes[0] {
			set[[2]int32{p.Event, p.Partner}] = true
		}
		results[u] = set
	}
	return time.Since(start) / time.Duration(len(users)), results
}

// overlap measures how much of the full-space top-10 survives pruning,
// averaged over users — Figure 7(b)'s approximation ratio.
func overlap(full, pruned map[int32]map[[2]int32]bool) float64 {
	var hit, total int
	for u, fullSet := range full {
		for pair := range fullSet {
			total++
			if pruned[u][pair] {
				hit++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}
