package serve

import (
	"fmt"
	"testing"
	"time"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(64, 4, time.Minute)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", []byte("1"))
	v, ok := c.Get("a")
	if !ok || string(v) != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	c.Put("a", []byte("2"))
	if v, _ := c.Get("a"); string(v) != "2" {
		t.Fatalf("overwrite lost: %q", v)
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 2, 1", hits, misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// One shard of capacity 4 makes eviction order deterministic.
	c := NewCache(4, 1, time.Minute)
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("k%d", i), nil)
	}
	// Touch k0 so k1 is now the least recently used.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Put("k4", nil)
	if _, ok := c.Get("k1"); ok {
		t.Fatal("LRU entry k1 survived eviction")
	}
	for _, k := range []string{"k0", "k2", "k3", "k4"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	c := NewCache(16, 2, 10*time.Second)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	c.Put("a", nil)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("fresh entry missing")
	}
	now = now.Add(11 * time.Second)
	if _, ok := c.Get("a"); ok {
		t.Fatal("expired entry served")
	}
	if c.Len() != 0 {
		t.Fatalf("expired entry still resident: Len = %d", c.Len())
	}
	// ttl < 0 disables expiry.
	c2 := NewCache(16, 2, -1)
	c2.now = func() time.Time { return now }
	c2.Put("a", nil)
	now = now.Add(1000 * time.Hour)
	if _, ok := c2.Get("a"); !ok {
		t.Fatal("entry expired with TTL disabled")
	}
}

func TestCacheShardingSpreadsKeys(t *testing.T) {
	c := NewCache(1024, 8, time.Minute)
	for i := 0; i < 512; i++ {
		c.Put(fmt.Sprintf("key-%d", i), nil)
	}
	if c.Len() != 512 {
		t.Fatalf("Len = %d, want 512", c.Len())
	}
	touched := 0
	for _, s := range c.shards {
		if s.ll.Len() > 0 {
			touched++
		}
	}
	if touched < 2 {
		t.Fatalf("only %d of %d shards used — hash is degenerate", touched, len(c.shards))
	}
	if c.Capacity() < 1024 {
		t.Fatalf("Capacity = %d, want >= 1024", c.Capacity())
	}
}

// TestCacheResidentBytes follows the summed body length behind
// ebsn_serve_cache_bytes through a put, an overwrite, an LRU eviction
// and a TTL expiry.
func TestCacheResidentBytes(t *testing.T) {
	c := NewCache(2, 1, 10*time.Second)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	check := func(stage string, want int64) {
		t.Helper()
		if got := c.residentBytes(); got != want {
			t.Fatalf("%s: resident bytes %d, want %d", stage, got, want)
		}
	}
	c.Put("a", make([]byte, 100))
	c.Put("b", make([]byte, 30))
	check("two puts", 130)
	c.Put("a", make([]byte, 70))
	check("overwrite", 100)
	c.Put("c", make([]byte, 5)) // evicts b, the least recently used
	check("LRU eviction", 75)
	now = now.Add(11 * time.Second)
	if _, ok := c.Get("a"); ok {
		t.Fatal("expired entry served")
	}
	check("TTL expiry", 5)
}
