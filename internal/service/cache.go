package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"

	"chaos"
	"chaos/internal/durable"
)

// resultSchema versions what a stored result means. It is mixed into
// every cache key, so bumping it makes blobs written under an older
// definition miss and be recomputed instead of served. Bump it when the
// same inputs start producing a different Result or Report. Version 2:
// SSSP's "reached" summary stopped counting unreachable vertices; blobs
// from before that fix were keyed without a version.
const resultSchema = "2"

// cacheKey content-addresses a run: the result schema version, the graph
// id (catalog ids are immutable bindings to one edge set), the canonical
// algorithm name, and the canonicalized options fingerprint. Two
// submissions with the same key are guaranteed to produce identical
// results, so the second is served from memory — or, with a data dir,
// from the disk result store, across process restarts.
func cacheKey(graphID, algorithm string, opt chaos.Options) string {
	h := sha256.New()
	h.Write([]byte("schema=" + resultSchema))
	h.Write([]byte{0})
	h.Write([]byte(graphID))
	h.Write([]byte{0})
	h.Write([]byte(algorithm))
	h.Write([]byte{0})
	h.Write([]byte(opt.Fingerprint()))
	return hex.EncodeToString(h.Sum(nil))
}

type cacheEntry struct {
	result *chaos.Result
	report *chaos.Report
}

// storedResult is the disk encoding of a finished run in the result
// store (one JSON blob per cache key).
type storedResult struct {
	Result *chaos.Result `json:"result"`
	Report *chaos.Report `json:"report"`
}

// resultCache holds finished runs by content-addressed key, bounded to
// capacity entries with oldest-first eviction (an always-on server must
// not grow without bound). Entries are immutable once stored; lookups
// hand out the shared pointers.
//
// With a disk store attached it becomes the hot tier of a two-level
// cache: memory misses fall through to disk, and disk hits are promoted
// back into memory. Writing to disk is the service's job (it must order
// the blob write against the journal); the cache only reads.
type resultCache struct {
	mu      sync.Mutex
	entries map[string]cacheEntry
	// order is the insertion queue backing FIFO eviction: live keys are
	// order[head:]. Eviction advances head instead of reslicing from the
	// front — order = order[1:] would keep the evicted strings reachable
	// through the backing array forever — and compacts once the dead
	// prefix dominates.
	order    []string
	head     int
	cap      int
	hits     int
	misses   int
	diskHits int

	disk *durable.ResultStore // nil without a data dir
}

func newResultCache(capacity int, disk *durable.ResultStore) *resultCache {
	return &resultCache{entries: make(map[string]cacheEntry), cap: capacity, disk: disk}
}

// lookup returns the cached run for key, counting a hit or miss. On a
// memory miss it consults the disk tier and promotes a hit.
func (c *resultCache) lookup(key string) (*chaos.Result, *chaos.Report, bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.mu.Unlock()
		return e.result, e.report, true
	}
	disk := c.disk
	if disk == nil {
		c.misses++
		c.mu.Unlock()
		return nil, nil, false
	}
	c.mu.Unlock() // don't hold the lock across file IO

	data, ok := disk.Get(key)
	if !ok {
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		return nil, nil, false
	}
	var sr storedResult
	if err := json.Unmarshal(data, &sr); err != nil || sr.Result == nil {
		// Undecodable blob (schema drift, bit rot): drop it so the
		// deterministic rerun can rewrite the key — Put is a no-op for
		// keys the store still indexes, so merely reporting a miss
		// would leave it poisoned forever.
		disk.Delete(key)
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		return nil, nil, false
	}
	c.mu.Lock()
	c.storeLocked(key, sr.Result, sr.Report)
	c.hits++
	c.diskHits++
	c.mu.Unlock()
	return sr.Result, sr.Report, true
}

// store files a finished run under key, evicting the oldest entry when
// the cache is full.
func (c *resultCache) store(key string, res *chaos.Result, rep *chaos.Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.storeLocked(key, res, rep)
}

func (c *resultCache) storeLocked(key string, res *chaos.Result, rep *chaos.Report) {
	if _, exists := c.entries[key]; exists {
		return // identical deterministic run already cached
	}
	for c.cap > 0 && len(c.entries) >= c.cap {
		c.evictOldestLocked()
	}
	c.entries[key] = cacheEntry{result: res, report: rep}
	c.order = append(c.order, key)
}

// evictOldestLocked removes the oldest live entry. The vacated slot is
// zeroed immediately (so the key string is collectable) and the queue
// is compacted once half of it is dead, releasing the backing array the
// old order[1:] reslicing pinned.
func (c *resultCache) evictOldestLocked() {
	key := c.order[c.head]
	c.order[c.head] = ""
	c.head++
	delete(c.entries, key)
	if c.head >= 32 && c.head*2 >= len(c.order) {
		// Copy the live window into a fresh slice: the old backing
		// array — and every evicted key string it still references —
		// becomes garbage.
		c.order = append(make([]string, 0, len(c.order)-c.head), c.order[c.head:]...)
		c.head = 0
	}
}

// CacheStats is the cache's contribution to /v1/stats.
type CacheStats struct {
	Entries int     `json:"entries"`
	Hits    int     `json:"hits"`
	Misses  int     `json:"misses"`
	HitRate float64 `json:"hitRate"`
	// DiskHits counts lookups the memory tier missed but the disk
	// result store answered (a subset of Hits).
	DiskHits int `json:"diskHits,omitempty"`
	// Disk reports the persistent tier, present only with a data dir.
	Disk *durable.StoreStats `json:"disk,omitempty"`
}

func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{Entries: len(c.entries), Hits: c.hits, Misses: c.misses, DiskHits: c.diskHits}
	if total := c.hits + c.misses; total > 0 {
		st.HitRate = float64(c.hits) / float64(total)
	}
	if c.disk != nil {
		ds := c.disk.Stats()
		st.Disk = &ds
	}
	return st
}
