// Quickstart: generate a synthetic event-based social network, train the
// GEM embedding model, and print joint event-partner recommendations —
// the paper's headline scenario — in under a minute.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ebsn"
)

func main() {
	// Build the whole pipeline on the tiny synthetic city: dataset
	// generation, the cold-start chronological split, the five relation
	// graphs, and GEM-A training.
	rec, err := ebsn.New(ebsn.Config{
		City:    ebsn.CityTiny,
		Seed:    42,
		Variant: ebsn.GEMA,
		Threads: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	d := rec.Dataset()
	fmt.Println("dataset:", d.Stats())
	fmt.Printf("model:   %s, K=%d, %d gradient steps\n\n",
		ebsn.GEMA, rec.Model().K(), rec.Model().Steps())

	// Pick a reasonably active user.
	var user int32
	for u := int32(0); int(u) < d.NumUsers; u++ {
		if len(d.UserEvents(u)) >= 10 && len(d.Friends(u)) >= 5 {
			user = u
			break
		}
	}
	fmt.Printf("target user %d: %d events attended, %d friends\n\n",
		user, len(d.UserEvents(user)), len(d.Friends(user)))

	// Classic cold-start event recommendation: rank future events the
	// user has never interacted with.
	events, err := rec.TopEvents(user, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top 5 cold events:")
	for i, e := range events {
		ev := d.Events[e.Event]
		fmt.Printf("  %d. event %d on %s (score %.3f)\n",
			i+1, e.Event, ev.Start.Format("Mon Jan 2 15:04"), e.Score)
	}

	// The paper's contribution: recommend who to go with, jointly with
	// what to attend, via the TA index over the transformed space.
	lanes, _, err := rec.Recommend([]int32{user}, 5, ebsn.Constraint{})
	if err != nil {
		log.Fatal(err)
	}
	pairs := lanes[0]
	fmt.Println("\ntop 5 event-partner pairs:")
	for i, p := range pairs {
		rel := "new person"
		if d.AreFriends(user, p.Partner) {
			rel = "friend"
		}
		fmt.Printf("  %d. event %d with user %d (%s, score %.3f)\n",
			i+1, p.Event, p.Partner, rel, p.Score)
	}
}
