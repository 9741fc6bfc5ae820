package vfs

import (
	"container/list"

	"repro/internal/des"
)

// readAhead is the sequential prefetch window; it must span enough stripe
// units that a single sequential reader drives all array disks.
const readAhead = 2 << 20

// PageCacheConfig sizes the server page cache.
type PageCacheConfig struct {
	// CapacityBytes is the memory available for cached file pages (server
	// RAM minus OS/daemon overhead: the paper's 4 GB and 8 GB server
	// configurations).
	CapacityBytes int64
	// PageSize is the cache granule. 64 KiB keeps simulations fast while
	// preserving hit/miss behaviour at the record sizes the paper uses.
	PageSize int
	// DirtyLimitBytes throttles writers once this much dirty data
	// accumulates (writeback then happens on the writer's clock).
	DirtyLimitBytes int64
}

func (c *PageCacheConfig) defaults() {
	if c.CapacityBytes <= 0 {
		c.CapacityBytes = 3 << 30
	}
	if c.PageSize <= 0 {
		c.PageSize = 64 << 10
	}
	if c.DirtyLimitBytes <= 0 {
		c.DirtyLimitBytes = c.CapacityBytes / 4
	}
}

type pageKey struct {
	id   FileID
	page int64
}

type page struct {
	key   pageKey
	dirty bool
	elem  *list.Element
}

// PageCache is an LRU cache of file pages in front of a DiskArray. It is
// deliberately a plain LRU: the paper's Fig. 10(a) knee — aggregate
// throughput collapsing once the clients' combined working set exceeds
// server memory — is a direct consequence of LRU behaviour under cyclic
// sequential re-reads.
type PageCache struct {
	cfg   PageCacheConfig
	disk  *DiskArray
	pages map[pageKey]*page
	lru   *list.List // front = most recent
	dirty int64

	// next expected sequential read offset per file, for readahead.
	nextSeq map[FileID]int64

	Hits, Misses int64
}

// NewPageCache builds a cache over the given array.
func NewPageCache(disk *DiskArray, cfg PageCacheConfig) *PageCache {
	cfg.defaults()
	return &PageCache{
		cfg:     cfg,
		disk:    disk,
		pages:   make(map[pageKey]*page),
		lru:     list.New(),
		nextSeq: make(map[FileID]int64),
	}
}

// Config returns the cache configuration.
func (c *PageCache) Config() PageCacheConfig { return c.cfg }

// CachedBytes returns resident page bytes.
func (c *PageCache) CachedBytes() int64 {
	return int64(len(c.pages)) * int64(c.cfg.PageSize)
}

func (c *PageCache) capacityPages() int {
	return int(c.cfg.CapacityBytes / int64(c.cfg.PageSize))
}

// diskOffset maps a file page to a logical array offset. Files are laid out
// at wide intervals; only intra-file sequentiality matters to the model.
func diskOffset(id FileID, pageIdx int64, pageSize int) int64 {
	return int64(id)<<42 + pageIdx*int64(pageSize)
}

// touch marks a resident page most recently used.
func (c *PageCache) touch(pg *page) { c.lru.MoveToFront(pg.elem) }

// insert adds a page, evicting from the LRU tail as needed. Dirty victims
// are written back on the caller's clock (the simple writeback model).
func (c *PageCache) insert(p *des.Proc, key pageKey, dirty bool) *page {
	for len(c.pages) >= c.capacityPages() {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		victim := tail.Value.(*page)
		// Detach before any blocking disk write so concurrent workers never
		// observe (or double-evict) a half-removed page.
		c.lru.Remove(tail)
		delete(c.pages, victim.key)
		if victim.dirty {
			victim.dirty = false
			c.dirty -= int64(c.cfg.PageSize)
			c.disk.Write(p, diskOffset(victim.key.id, victim.key.page, c.cfg.PageSize), c.cfg.PageSize)
		}
	}
	pg := &page{key: key, dirty: dirty}
	pg.elem = c.lru.PushFront(pg)
	c.pages[key] = pg
	if dirty {
		c.dirty += int64(c.cfg.PageSize)
	}
	return pg
}

// Read brings [off, off+n) of file id resident, charging disk time for
// misses, with sequential readahead.
func (c *PageCache) Read(p *des.Proc, id FileID, off int64, n int) {
	ps := int64(c.cfg.PageSize)
	first := off / ps
	last := (off + int64(n) - 1) / ps
	var missStart, missEnd int64 = -1, -1
	flushMisses := func() {
		if missStart < 0 {
			return
		}
		count := missEnd - missStart + 1
		// Sequential detection: extend with readahead when this miss run
		// continues the previous read.
		raPages := int64(0)
		if missStart*ps <= c.nextSeq[id] && c.nextSeq[id] <= missEnd*ps+ps {
			raPages = readAhead / ps
		}
		c.disk.Read(p, diskOffset(id, missStart, c.cfg.PageSize), int((count+raPages)*ps))
		for pg := missStart; pg <= missEnd+raPages; pg++ {
			if _, ok := c.pages[pageKey{id, pg}]; !ok {
				c.insert(p, pageKey{id, pg}, false)
			}
		}
		missStart, missEnd = -1, -1
	}
	for pgIdx := first; pgIdx <= last; pgIdx++ {
		if pg, ok := c.pages[pageKey{id, pgIdx}]; ok {
			c.Hits++
			c.touch(pg)
			flushMisses()
			continue
		}
		c.Misses++
		if missStart < 0 {
			missStart = pgIdx
		}
		missEnd = pgIdx
	}
	flushMisses()
	c.nextSeq[id] = off + int64(n)
}

// Write dirties [off, off+n) of file id, throttling the writer once the
// dirty limit is reached by synchronously writing back LRU-tail dirty
// pages.
func (c *PageCache) Write(p *des.Proc, id FileID, off int64, n int) {
	ps := int64(c.cfg.PageSize)
	first := off / ps
	last := (off + int64(n) - 1) / ps
	for pgIdx := first; pgIdx <= last; pgIdx++ {
		key := pageKey{id, pgIdx}
		if pg, ok := c.pages[key]; ok {
			if !pg.dirty {
				pg.dirty = true
				c.dirty += int64(c.cfg.PageSize)
			}
			c.touch(pg)
		} else {
			c.insert(p, key, true)
		}
	}
	for c.dirty > c.cfg.DirtyLimitBytes {
		c.writebackOldest(p)
	}
}

// writebackOldest flushes the least recently used dirty page.
func (c *PageCache) writebackOldest(p *des.Proc) {
	for e := c.lru.Back(); e != nil; e = e.Prev() {
		pg := e.Value.(*page)
		if pg.dirty {
			// Mark clean before the blocking write so a concurrent throttled
			// writer picks a different victim.
			pg.dirty = false
			c.dirty -= int64(c.cfg.PageSize)
			c.disk.Write(p, diskOffset(pg.key.id, pg.key.page, c.cfg.PageSize), c.cfg.PageSize)
			return
		}
	}
	c.dirty = 0 // nothing dirty found; resynchronize
}

// Commit flushes all dirty pages of file id (0,0 = whole file). Victims are
// collected first: the flush writes block, and the LRU may change under a
// blocked worker.
func (c *PageCache) Commit(p *des.Proc, id FileID, off int64, count int) {
	var victims []*page
	for e := c.lru.Back(); e != nil; e = e.Prev() {
		pg := e.Value.(*page)
		if pg.key.id != id || !pg.dirty {
			continue
		}
		if count > 0 {
			ps := int64(c.cfg.PageSize)
			pos := pg.key.page * ps
			if pos+ps <= off || pos >= off+int64(count) {
				continue
			}
		}
		pg.dirty = false
		c.dirty -= int64(c.cfg.PageSize)
		victims = append(victims, pg)
	}
	for _, pg := range victims {
		c.disk.Write(p, diskOffset(pg.key.id, pg.key.page, c.cfg.PageSize), c.cfg.PageSize)
	}
}

// Crash discards the entire cache without writeback: resident pages, dirty
// state, and readahead tracking all die with the server's RAM. Dirty pages
// that had not reached the disk are simply gone — which is exactly why NFSv3
// clients must not trust unstable WRITEs until COMMIT (or a FileSync ack)
// and must re-send them when the write verifier changes across a restart.
func (c *PageCache) Crash() {
	c.pages = make(map[pageKey]*page)
	c.lru.Init()
	c.dirty = 0
	c.nextSeq = make(map[FileID]int64)
}

// Drop discards all pages of file id (file removal).
func (c *PageCache) Drop(id FileID) {
	for e := c.lru.Front(); e != nil; {
		next := e.Next()
		pg := e.Value.(*page)
		if pg.key.id == id {
			if pg.dirty {
				c.dirty -= int64(c.cfg.PageSize)
			}
			c.lru.Remove(e)
			delete(c.pages, pg.key)
		}
		e = next
	}
	delete(c.nextSeq, id)
}

// DiskStore is a Store backed by the page cache + disk array. Contents are
// never materialized (disk experiments run at scales where that would be
// prohibitive); integrity testing uses the MemStore.
type DiskStore struct {
	cache *PageCache
}

// NewDiskStore builds a disk-backed store.
func NewDiskStore(cache *PageCache) *DiskStore { return &DiskStore{cache: cache} }

// Cache returns the underlying page cache.
func (s *DiskStore) Cache() *PageCache { return s.cache }

// Read implements Store.
func (s *DiskStore) Read(p *des.Proc, id FileID, size, off int64, count int, dst []byte) int {
	if off >= size {
		return 0
	}
	n := count
	if int64(n) > size-off {
		n = int(size - off)
	}
	s.cache.Read(p, id, off, n)
	if dst != nil {
		clear(dst[:n])
	}
	return n
}

// Write implements Store.
func (s *DiskStore) Write(p *des.Proc, id FileID, off int64, count int, data []byte, stable bool) {
	s.cache.Write(p, id, off, count)
	if stable {
		s.cache.Commit(p, id, off, count)
	}
}

// Commit implements Store.
func (s *DiskStore) Commit(p *des.Proc, id FileID, off int64, count int) {
	s.cache.Commit(p, id, off, count)
}

// Truncate implements Store.
func (s *DiskStore) Truncate(id FileID, size int64) {}

// Drop implements Store.
func (s *DiskStore) Drop(id FileID) { s.cache.Drop(id) }
