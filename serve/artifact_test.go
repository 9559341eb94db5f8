package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// getBody fetches a path and returns the raw response body, failing the
// test on any non-200 status.
func getBody(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("%s = %d: %s", path, resp.StatusCode, b)
	}
	return string(b)
}

// artifactCounters scrapes the artifact families: mapped loads,
// fallback rebuilds and artifact writes.
func artifactCounters(t *testing.T, s *Server) (loads, fallbacks, saves float64) {
	t.Helper()
	m := scrape(t, s)
	return m[`ebsn_serve_artifact_loads_total`], m[`ebsn_serve_artifact_fallback_rebuilds_total`], m[`ebsn_serve_artifact_saves_total`]
}

// corruptInPlace replaces the artifact with garbage via the same
// write-then-rename dance WriteArtifact uses, so an engine still mapping
// the old inode is untouched — only the *next* open sees the bad file.
func corruptInPlace(t *testing.T, path string) {
	t.Helper()
	tmp := path + ".garbage"
	if err := os.WriteFile(tmp, []byte("EBSNIDX1 but not really; decidedly not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// TestWarmArtifactFallbackThenMap covers the artifact lifecycle across
// two cold starts sharing one path: the first Warm finds no artifact,
// falls back to a full rebuild, and writes the file; the second maps it
// and answers identically — and the /metrics exposition carries the
// mapped-bytes gauge and the Go runtime telemetry.
func TestWarmArtifactFallbackThenMap(t *testing.T) {
	artPath := filepath.Join(t.TempDir(), "index.art")
	cfg := Config{ArtifactPath: artPath}

	s1 := warmServer(t, cfg)
	srv1 := httptest.NewServer(s1)
	if loads, fallbacks, saves := artifactCounters(t, s1); loads != 0 || fallbacks != 1 || saves != 1 {
		t.Fatalf("first warm artifact counters = (%v loads, %v fallbacks, %v saves), want (0, 1, 1)", loads, fallbacks, saves)
	}
	if _, err := os.Stat(artPath); err != nil {
		t.Fatalf("artifact not written after fallback rebuild: %v", err)
	}
	want := make([]string, 10)
	for u := range want {
		want[u] = getBody(t, srv1, fmt.Sprintf("/v1/partners?user=%d&n=8", u))
	}
	srv1.Close()

	s2 := warmServer(t, cfg)
	srv2 := httptest.NewServer(s2)
	defer srv2.Close()
	if loads, fallbacks, saves := artifactCounters(t, s2); loads != 1 || fallbacks != 0 || saves != 0 {
		t.Fatalf("second warm artifact counters = (%v loads, %v fallbacks, %v saves), want (1, 0, 0)", loads, fallbacks, saves)
	}
	for u := range want {
		if got := getBody(t, srv2, fmt.Sprintf("/v1/partners?user=%d&n=8", u)); got != want[u] {
			t.Fatalf("user %d: mapped engine served %s, rebuilt engine served %s", u, got, want[u])
		}
	}

	exposition := getBody(t, srv2, "/metrics")
	for _, metric := range []string{
		"ebsn_mapped_bytes",
		"go_memstats_heap_inuse_bytes",
		"go_gc_cycles_total",
		"ebsn_serve_artifact_loads_total 1",
	} {
		if !strings.Contains(exposition, metric) {
			t.Errorf("/metrics exposition is missing %q", metric)
		}
	}
}

// TestWarmCorruptArtifactFallsBack proves a damaged artifact can never
// keep the server down: Warm detects the corruption, rebuilds, and
// rewrites a sound artifact over it.
func TestWarmCorruptArtifactFallsBack(t *testing.T) {
	artPath := filepath.Join(t.TempDir(), "index.art")
	if err := os.WriteFile(artPath, []byte("truncated garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{ArtifactPath: artPath}

	s := warmServer(t, cfg)
	httptest.NewServer(s).Close()
	if loads, fallbacks, saves := artifactCounters(t, s); loads != 0 || fallbacks != 1 || saves != 1 {
		t.Fatalf("corrupt-artifact warm counters = (%v loads, %v fallbacks, %v saves), want (0, 1, 1)", loads, fallbacks, saves)
	}

	// The rewrite healed the file: the next start maps it.
	s2 := warmServer(t, cfg)
	if loads, _, _ := artifactCounters(t, s2); loads != 1 {
		t.Fatalf("warm after heal: %v artifact loads, want 1", loads)
	}
}

// TestWarmLegacyFlaggedArtifactRebuildsOnce covers the upgrade path for
// artifacts whose flags word has bit 0 set (it once marked int8 mirror
// sections): the flag is unknown now, so the file is stale even with a
// valid header checksum. Warm falls back to one rebuild and rewrites the
// file, and the next Warm maps the rewrite.
func TestWarmLegacyFlaggedArtifactRebuildsOnce(t *testing.T) {
	artPath := filepath.Join(t.TempDir(), "index.art")
	cfg := Config{ArtifactPath: artPath}
	warmServer(t, cfg) // writes a current artifact
	raw, err := os.ReadFile(artPath)
	if err != nil {
		t.Fatal(err)
	}
	// Header layout (internal/ta/artifact.go): flags at [24:28), the
	// header CRC over [0:52) at [52:56).
	binary.BigEndian.PutUint32(raw[24:], 1)
	binary.BigEndian.PutUint32(raw[52:], crc32.ChecksumIEEE(raw[:52]))
	if err := os.WriteFile(artPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s1 := warmServer(t, cfg)
	if loads, fallbacks, saves := artifactCounters(t, s1); loads != 0 || fallbacks != 1 || saves != 1 {
		t.Fatalf("warm over a flagged artifact = (%v loads, %v fallbacks, %v saves), want (0, 1, 1)", loads, fallbacks, saves)
	}
	s2 := warmServer(t, cfg)
	if loads, fallbacks, saves := artifactCounters(t, s2); loads != 1 || fallbacks != 0 || saves != 0 {
		t.Fatalf("warm over the rewrite = (%v loads, %v fallbacks, %v saves), want (1, 0, 0)", loads, fallbacks, saves)
	}
}

// TestDefaultPruneKIsTheDaemonDefault pins the one default-pruning rule:
// a default-config server prunes to Recommender.DefaultPruneK, and an
// artifact built with that pruning — as ebsn-train builds it — is mapped
// by a default-config server instead of being rebuilt.
func TestDefaultPruneKIsTheDaemonDefault(t *testing.T) {
	rec := testRecommender(t)
	s := warmServer(t, Config{})
	if got, want := scrape(t, s)[`ebsn_serve_prune_k`], float64(rec.DefaultPruneK()); got != want {
		t.Fatalf("ebsn_serve_prune_k = %v, DefaultPruneK = %v", got, want)
	}

	artPath := filepath.Join(t.TempDir(), "index.art")
	if err := rec.PrepareJointSharded(rec.DefaultPruneK(), 1); err != nil {
		t.Fatal(err)
	}
	if err := rec.SaveIndexArtifact(artPath); err != nil {
		t.Fatal(err)
	}
	s2 := warmServer(t, Config{ArtifactPath: artPath})
	if loads, fallbacks, _ := artifactCounters(t, s2); loads != 1 || fallbacks != 0 {
		t.Fatalf("default-config warm over a DefaultPruneK artifact = (%v loads, %v fallbacks), want (1, 0)", loads, fallbacks)
	}
}

// TestReloadWithArtifactUnderConcurrentQueries exercises the reload path
// end to end while queries hammer the server: reloads that map the
// artifact, a reload against a replaced (stale-after-retrain shaped)
// artifact that must fall back and rewrite it, and a final reload that
// maps the rewrite. Every query during every swap must succeed. Run
// under -race this doubles as the concurrent reload-vs-query artifact
// race test.
func TestReloadWithArtifactUnderConcurrentQueries(t *testing.T) {
	dir := t.TempDir()
	snapPath := saveTestSnapshot(t)
	artPath := filepath.Join(dir, "index.art")
	s := warmServer(t, Config{SnapshotPath: snapPath, ArtifactPath: artPath})
	srv := httptest.NewServer(s)
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := fmt.Sprintf("/v1/partners?user=%d&n=5", (w+i)%8)
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("%s = %d during artifact reload", path, resp.StatusCode)
					return
				}
			}
		}(w)
	}

	reload := func() {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/reload", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("reload = %d", resp.StatusCode)
		}
	}

	// Two reloads against the artifact the warm-up fallback wrote: both
	// map it (same model, same configuration → matching fingerprint).
	reload()
	reload()
	// A retrain replaces the artifact with one this model refuses; the
	// reload falls back to a rebuild and rewrites a matching artifact.
	corruptInPlace(t, artPath)
	reload()
	// The rewrite is mapped straight back.
	reload()

	close(stop)
	wg.Wait()

	loads, fallbacks, saves := artifactCounters(t, s)
	if loads != 3 || fallbacks != 2 || saves != 2 {
		t.Fatalf("artifact counters after reload cycle = (%v loads, %v fallbacks, %v saves), want (3, 2, 2)", loads, fallbacks, saves)
	}
}
