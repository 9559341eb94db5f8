// ebsn-recommend loads a run directory produced by ebsn-train and prints
// top-n recommendations: cold-event recommendations for a user, and joint
// event-partner recommendations via the TA index.
//
// Usage:
//
//	ebsn-recommend -run ./run -user 42 -n 10
//	ebsn-recommend -run ./run -user 42 -n 10 -prune 40
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ebsn"
)

func main() {
	var (
		run   = flag.String("run", "ebsn-run", "run directory from ebsn-train")
		user  = flag.Int("user", 0, "target user ID")
		n     = flag.Int("n", 10, "number of recommendations")
		prune = flag.Int("prune", 0, "top-k events per partner in the joint space (0 = 5% of test events)")
	)
	flag.Parse()

	rec, err := ebsn.Open(*run, ebsn.Config{})
	if err != nil {
		fatal(err)
	}
	d := rec.Dataset()
	if *user < 0 || *user >= d.NumUsers {
		fatal(fmt.Errorf("user %d out of range [0,%d)", *user, d.NumUsers))
	}
	u := int32(*user)

	fmt.Printf("user %d: %d attended events, %d friends\n\n",
		u, len(d.UserEvents(u)), len(d.Friends(u)))

	events, err := rec.TopEvents(u, *n)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("top-%d cold events:\n", *n)
	for i, e := range events {
		ev := d.Events[e.Event]
		fmt.Printf("%2d. event %-6d score %.3f  %s  %q\n",
			i+1, e.Event, e.Score, ev.Start.Format("2006-01-02 15:04"), snippet(ev.Words, 6))
	}

	if *prune > 0 {
		if err := rec.PrepareJoint(*prune); err != nil {
			fatal(err)
		}
	}
	lanes, _, err := rec.Recommend([]int32{u}, *n, ebsn.Constraint{})
	if err != nil {
		fatal(err)
	}
	pairs := lanes[0]
	fmt.Printf("\ntop-%d event-partner pairs:\n", *n)
	for i, p := range pairs {
		ev := d.Events[p.Event]
		tag := ""
		if d.AreFriends(u, p.Partner) {
			tag = " (friend)"
		}
		why, err := rec.Explain(u, p.Partner, p.Event)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%2d. event %-6d with user %-6d%s score %.3f  %s  (you:%.2f partner:%.2f social:%.2f)\n",
			i+1, p.Event, p.Partner, tag, p.Score, ev.Start.Format("2006-01-02 15:04"),
			why.UserEvent, why.PartnerEvent, why.Social)
	}
}

func snippet(words []string, n int) string {
	if len(words) > n {
		words = words[:n]
	}
	return strings.Join(words, " ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ebsn-recommend:", err)
	os.Exit(1)
}
