package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ebsn"
)

// TestShardedServerMatchesMonolithic warms a multi-shard server and
// checks the /v1/partners answers are bit-identical to a one-shard
// engine's, and that the fan-out shows up in spans and metrics:
// per-shard stages, the shards attr, the engine-shards gauge, and the
// shard-labeled counter/histogram families.
func TestShardedServerMatchesMonolithic(t *testing.T) {
	rec := testRecommender(t)
	s := New(rec, Config{Shards: 3, TraceEnabled: true, SlowQueryThreshold: 1, CacheCapacity: -1})
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	if got := rec.EngineShards(); got != 3 {
		t.Fatalf("EngineShards = %d, want 3", got)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	// The one-shard reference: a clone of the same embeddings, which
	// builds its own default engine on first use.
	ref, err := rec.WithSnapshot(rec.Model().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for user := int32(0); user < 6; user++ {
		var resp RankingResponse
		if r := getJSON(t, srv, "/v1/partners?user="+strconv.Itoa(int(user))+"&n=7", &resp); r.StatusCode != 200 {
			t.Fatalf("/v1/partners user %d = %d", user, r.StatusCode)
		}
		lanes, _, err := ref.Recommend([]int32{user}, 7, ebsn.Constraint{})
		if err != nil {
			t.Fatal(err)
		}
		want := lanes[0]
		if len(resp.Pairs) != len(want) {
			t.Fatalf("user %d: %d pairs, want %d", user, len(resp.Pairs), len(want))
		}
		for i, p := range resp.Pairs {
			if p.Event != want[i].Event || p.Partner != want[i].Partner || p.Score != want[i].Score {
				t.Fatalf("user %d pair %d = %+v, want %+v", user, i, p, want[i])
			}
		}
	}

	// The live endpoint routes through the engine while no delta exists.
	var live RankingResponse
	if r := getJSON(t, srv, "/v1/partners/live?user=1&n=4", &live); r.StatusCode != 200 {
		t.Fatalf("/v1/partners/live = %d", r.StatusCode)
	}
	if len(live.Pairs) != 4 {
		t.Fatalf("live pairs = %d, want 4", len(live.Pairs))
	}

	// Span decomposition: the newest slow entry must carry one stage per
	// shard and the fan-out attrs.
	var sl SlowlogResponse
	getJSON(t, srv, "/v1/debug/slowlog", &sl)
	if len(sl.Entries) == 0 {
		t.Fatal("no slowlog entries captured")
	}
	found := false
	for _, e := range sl.Entries {
		if e.Name != epPartners || e.Attrs["cache_hit"] != 0 {
			continue
		}
		found = true
		if e.Attrs["shards"] != 3 {
			t.Fatalf("shards attr = %d, want 3 (attrs %+v)", e.Attrs["shards"], e.Attrs)
		}
		var names []string
		for _, st := range e.Stages {
			names = append(names, st.Name)
		}
		if strings.Join(names, ",") != "cache,ta_search,shard0,shard1,shard2,encode" {
			t.Fatalf("stages = %v", names)
		}
	}
	if !found {
		t.Fatal("no partners cache-miss span captured")
	}

	// Shard families in the exposition, with per-shard labels.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"ebsn_serve_engine_shards 3",
		"ebsn_serve_shard_fanout_total",
		`ebsn_serve_shard_searches_total{shard="0"}`,
		`ebsn_serve_shard_searches_total{shard="2"}`,
		`ebsn_serve_shard_wall_seconds_count{shard="1"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}
