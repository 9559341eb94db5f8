package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// Cache is a sharded LRU cache of encoded response bodies with a global
// TTL: a value is the exact bytes a miss sent, so a hit is a lookup and a
// Write and never goes back through the encoder. Sharding keeps
// lock contention off the hot query path: keys hash (FNV-1a) to one of
// several independently locked shards, each an LRU list over a map.
// Invalidation is by key construction, not by scanning: the server folds
// a generation counter into every key, so bumping the generation on
// ingest/compaction orphans stale entries and lets LRU pressure plus the
// TTL reclaim them.
type Cache struct {
	shards []*cacheShard
	ttl    time.Duration
	hits   atomic.Uint64
	misses atomic.Uint64
	// bytes is the summed length of the resident bodies, orphaned ones
	// included until LRU pressure or the TTL reclaims them.
	bytes atomic.Int64

	// now is swappable so tests can drive TTL expiry without sleeping.
	now func() time.Time
}

type cacheShard struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type cacheEntry struct {
	key     string
	val     []byte
	expires time.Time // zero when the cache has no TTL
}

// NewCache builds a cache holding up to capacity entries across shards.
// Zero values pick defaults (4096 entries, 8 shards, 60s TTL); ttl < 0
// disables expiry.
func NewCache(capacity, shards int, ttl time.Duration) *Cache {
	if capacity <= 0 {
		capacity = 4096
	}
	if shards <= 0 {
		shards = 8
	}
	if shards > capacity {
		shards = capacity
	}
	if ttl == 0 {
		ttl = time.Minute
	}
	per := (capacity + shards - 1) / shards
	c := &Cache{shards: make([]*cacheShard, shards), ttl: ttl, now: time.Now}
	for i := range c.shards {
		c.shards[i] = &cacheShard{cap: per, ll: list.New(), m: make(map[string]*list.Element, per)}
	}
	return c
}

func (c *Cache) shard(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return c.shards[h%uint32(len(c.shards))]
}

// Get returns the cached body for key, tracking hit/miss counters and
// evicting the entry if its TTL has lapsed. The bytes are shared with
// every other hit on the key: callers must not modify them.
func (c *Cache) Get(key string) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.m[key]; ok {
		e := el.Value.(*cacheEntry)
		if c.ttl > 0 && c.now().After(e.expires) {
			s.ll.Remove(el)
			delete(s.m, key)
			c.bytes.Add(-int64(len(e.val)))
		} else {
			s.ll.MoveToFront(el)
			val := e.val
			s.mu.Unlock()
			c.hits.Add(1)
			return val, true
		}
	}
	s.mu.Unlock()
	c.misses.Add(1)
	return nil, false
}

// Put stores val under key, evicting the shard's least recently used
// entry when full. The cache keeps val itself, not a copy.
func (c *Cache) Put(key string, val []byte) {
	s := c.shard(key)
	var exp time.Time
	if c.ttl > 0 {
		exp = c.now().Add(c.ttl)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes.Add(int64(len(val) - len(e.val)))
		e.val, e.expires = val, exp
		s.ll.MoveToFront(el)
		return
	}
	if s.ll.Len() >= s.cap {
		if back := s.ll.Back(); back != nil {
			s.ll.Remove(back)
			old := back.Value.(*cacheEntry)
			delete(s.m, old.key)
			c.bytes.Add(-int64(len(old.val)))
		}
	}
	s.m[key] = s.ll.PushFront(&cacheEntry{key: key, val: val, expires: exp})
	c.bytes.Add(int64(len(val)))
}

// Len returns the live entry count across shards.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// residentBytes returns the summed length of the cached bodies — the
// figure behind ebsn_serve_cache_bytes. The cache bounds entries, not
// bytes, and a feed body is the largest value it holds.
func (c *Cache) residentBytes() int64 { return c.bytes.Load() }

// Capacity returns the total entry budget across shards.
func (c *Cache) Capacity() int {
	n := 0
	for _, s := range c.shards {
		n += s.cap
	}
	return n
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
