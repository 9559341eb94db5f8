package main

import (
	"flag"
	"fmt"
	"testing"

	"ebsn/serve"
)

// TestFlagDefaultsAreDefaultConfig walks every flag configFlags binds
// against serve.DefaultConfig: each config flag's printed default is the
// table's value, every table entry has its flag, and parsing no
// arguments leaves the config equal to the table.
func TestFlagDefaultsAreDefaultConfig(t *testing.T) {
	d := serve.DefaultConfig()
	want := map[string]any{
		"cache": d.CacheCapacity, "cachettl": d.CacheTTL, "feed-ttl": d.FeedTTL,
		"maxinflight": d.MaxInFlight, "timeout": d.RequestTimeout, "drain": d.DrainTimeout,
		"prunek": d.PruneK, "shards": d.Shards, "max-batch": d.MaxBatch,
		"coalesce-window": d.CoalesceWindow, "coalesce-batch": d.CoalesceBatch,
		"auto-compact": d.AutoCompactEvents, "snapshot": d.SnapshotPath, "artifact": d.ArtifactPath,
		"trace": d.TraceEnabled, "slow-query": d.SlowQueryThreshold, "slowlog-size": d.SlowLogSize,
	}
	fs := flag.NewFlagSet("ebsn-serve", flag.ContinueOnError)
	cfg := serve.DefaultConfig()
	configFlags(fs, &cfg)
	fs.VisitAll(func(f *flag.Flag) {
		w, ok := want[f.Name]
		if !ok {
			t.Errorf("flag -%s sets a serve.Config field this table does not list", f.Name)
			return
		}
		if f.DefValue != fmt.Sprint(w) {
			t.Errorf("flag -%s defaults to %q, DefaultConfig has %v", f.Name, f.DefValue, w)
		}
		delete(want, f.Name)
	})
	for name := range want {
		t.Errorf("no flag -%s", name)
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if cfg != serve.DefaultConfig() {
		t.Errorf("parsing no flags gives %+v, want DefaultConfig %+v", cfg, serve.DefaultConfig())
	}
}
