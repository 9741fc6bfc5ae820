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
	elem  *list.Element // in lru
	delem *list.Element // in dirtyLRU while dirty
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

	// dirtyLRU holds the dirty pages in lru's order, so that the writeback
	// of the least recently used dirty page does not walk the clean ones.
	dirtyLRU *list.List

	// next expected sequential read offset per file, for readahead.
	nextSeq map[FileID]int64

	ops des.FreeList[Op] // Read's and Write's calls between uses, zeroed

	Hits, Misses int64
}

// NewPageCache builds a cache over the given array.
func NewPageCache(disk *DiskArray, cfg PageCacheConfig) *PageCache {
	cfg.defaults()
	return &PageCache{
		cfg:      cfg,
		disk:     disk,
		pages:    make(map[pageKey]*page),
		lru:      list.New(),
		dirtyLRU: list.New(),
		nextSeq:  make(map[FileID]int64),
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
func (c *PageCache) touch(pg *page) {
	c.lru.MoveToFront(pg.elem)
	if pg.dirty {
		c.dirtyLRU.MoveToFront(pg.delem)
	}
}

// markDirty dirties a clean page that is, or is about to be, the most
// recently used.
func (c *PageCache) markDirty(pg *page) {
	pg.dirty = true
	pg.delem = c.dirtyLRU.PushFront(pg)
	c.dirty += int64(c.cfg.PageSize)
}

// markClean cleans a dirty page.
func (c *PageCache) markClean(pg *page) {
	pg.dirty = false
	c.dirtyLRU.Remove(pg.delem)
	pg.delem = nil
	c.dirty -= int64(c.cfg.PageSize)
}

// Read is ReadThen on p.
func (c *PageCache) Read(p *des.Proc, id FileID, off int64, n int) {
	c.await(p, id, off, n, c.ReadThen)
}

// Write is WriteThen on p.
func (c *PageCache) Write(p *des.Proc, id FileID, off int64, n int) {
	c.await(p, id, off, n, c.WriteThen)
}

// await makes the call start on [off, off+n) of file id on p: the process
// forms are this around their chains.
func (c *PageCache) await(p *des.Proc, id FileID, off int64, n int, start func(*Op, FileID, int64, int, func(*Op))) {
	op := c.ops.Get()
	op.arg = p
	start(op, id, off, n, resume)
	p.Suspend()
	*op = Op{}
	c.ops.Put(op)
}

func resume(op *Op) { des.Resumer(op.arg) }

// begin readies op for a call on [off, off+n) of file id ending in next.
func (c *PageCache) begin(op *Op, id FileID, off int64, n int, next func(*Op)) {
	ps := int64(c.cfg.PageSize)
	op.cache, op.id, op.off, op.n, op.done = c, id, off, n, next
	op.pg, op.last = off/ps, (off+int64(n)-1)/ps
	op.missStart, op.missEnd = -1, -1
}

// insert adds a page, evicting from the LRU tail as needed, and reports
// whether it is done. Dirty victims are written back on the caller's clock
// (the simple writeback model): then it calls next(op) once the page is in.
func (c *PageCache) insert(op *Op, key pageKey, dirty bool, next func(*Op)) bool {
	op.key, op.dirty, op.inserted = key, dirty, next
	return c.evict(op)
}

// evict makes room for op.key and puts it in; it reports false when it
// waits for a victim's writeback, after which it goes on by itself.
func (c *PageCache) evict(op *Op) bool {
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
			c.markClean(victim)
			c.disk.writeThen(op, diskOffset(victim.key.id, victim.key.page, c.cfg.PageSize), c.cfg.PageSize, evicted)
			return false
		}
	}
	pg := &page{key: op.key}
	pg.elem = c.lru.PushFront(pg)
	c.pages[op.key] = pg
	if op.dirty {
		c.markDirty(pg)
	}
	return true
}

// evicted goes on with an insert after a victim's writeback.
func evicted(op *Op) {
	if op.cache.evict(op) {
		op.inserted(op)
	}
}

// ReadThen brings [off, off+n) of file id resident, charging disk time for
// misses, with sequential readahead, then calls next(op).
func (c *PageCache) ReadThen(op *Op, id FileID, off int64, n int, next func(*Op)) {
	c.begin(op, id, off, n, next)
	readScan(op)
}

// readScan passes the pages from op.pg on: a hit ends the run of misses
// before it, which is read from the disk before the scan goes on.
func readScan(op *Op) {
	c := op.cache
	for ; op.pg <= op.last; op.pg++ {
		pg, ok := c.pages[pageKey{op.id, op.pg}]
		if !ok {
			c.Misses++
			if op.missStart < 0 {
				op.missStart = op.pg
			}
			op.missEnd = op.pg
			continue
		}
		c.Hits++
		c.touch(pg)
		if op.missStart >= 0 {
			op.pg++
			c.readMisses(op, readScan)
			return
		}
	}
	if op.missStart >= 0 {
		c.readMisses(op, readDone)
		return
	}
	readDone(op)
}

func readDone(op *Op) {
	op.cache.nextSeq[op.id] = op.off + int64(op.n)
	op.done(op)
}

// readMisses reads the run of missed pages from the disk, extended with
// readahead when it continues the previous read, puts the pages it brought
// in, then calls next(op).
func (c *PageCache) readMisses(op *Op, next func(*Op)) {
	ps := int64(c.cfg.PageSize)
	count := op.missEnd - op.missStart + 1
	raPages := int64(0)
	if seq := c.nextSeq[op.id]; op.missStart*ps <= seq && seq <= op.missEnd*ps+ps {
		raPages = readAhead / ps
	}
	op.fill, op.filled = op.missEnd+raPages, next
	c.disk.readThen(op, diskOffset(op.id, op.missStart, c.cfg.PageSize), int((count+raPages)*ps), fillPages)
}

// fillPages inserts the pages a miss run read, from op.missStart on.
func fillPages(op *Op) {
	c := op.cache
	for ; op.missStart <= op.fill; op.missStart++ {
		key := pageKey{op.id, op.missStart}
		if _, ok := c.pages[key]; !ok && !c.insert(op, key, false, pageFilled) {
			return
		}
	}
	op.missStart, op.missEnd = -1, -1
	op.filled(op)
}

func pageFilled(op *Op) {
	op.missStart++
	fillPages(op)
}

// WriteThen dirties [off, off+n) of file id, throttling the writer once the
// dirty limit is reached by writing back LRU-tail dirty pages, then calls
// next(op).
func (c *PageCache) WriteThen(op *Op, id FileID, off int64, n int, next func(*Op)) {
	c.begin(op, id, off, n, next)
	writeScan(op)
}

func writeScan(op *Op) {
	c := op.cache
	for ; op.pg <= op.last; op.pg++ {
		key := pageKey{op.id, op.pg}
		if pg, ok := c.pages[key]; ok {
			if !pg.dirty {
				c.markDirty(pg)
			}
			c.touch(pg)
		} else if !c.insert(op, key, true, pageWritten) {
			return
		}
	}
	throttle(op)
}

func pageWritten(op *Op) {
	op.pg++
	writeScan(op)
}

// throttle writes back the least recently used dirty page while the cache
// is over its dirty limit. The page is marked clean before the disk write
// so a concurrent throttled writer picks a different victim.
func throttle(op *Op) {
	c := op.cache
	if c.dirty > c.cfg.DirtyLimitBytes {
		e := c.dirtyLRU.Back()
		if e == nil {
			c.dirty = 0 // nothing dirty found; resynchronize
		} else {
			pg := e.Value.(*page)
			c.markClean(pg)
			c.disk.writeThen(op, diskOffset(pg.key.id, pg.key.page, c.cfg.PageSize), c.cfg.PageSize, throttle)
			return
		}
	}
	op.done(op)
}

// CommitThen flushes all dirty pages of file id in [off, off+count) (0,0 =
// whole file), then calls next(op). Victims are collected first: the flush
// writes wait, and the LRU may change meanwhile.
func (c *PageCache) CommitThen(op *Op, id FileID, off int64, count int, next func(*Op)) {
	op.cache, op.done = c, next
	for e := c.dirtyLRU.Back(); e != nil; {
		pg := e.Value.(*page)
		e = e.Prev()
		if pg.key.id != id {
			continue
		}
		if count > 0 {
			ps := int64(c.cfg.PageSize)
			pos := pg.key.page * ps
			if pos+ps <= off || pos >= off+int64(count) {
				continue
			}
		}
		c.markClean(pg)
		op.victims = append(op.victims, pg)
	}
	flush(op)
}

// flush writes the commit's victims back one after another.
func flush(op *Op) {
	c := op.cache
	if len(op.victims) == 0 {
		op.victims = nil
		op.done(op)
		return
	}
	pg := op.victims[0]
	op.victims = op.victims[1:]
	c.disk.writeThen(op, diskOffset(pg.key.id, pg.key.page, c.cfg.PageSize), c.cfg.PageSize, flush)
}

// Crash discards the entire cache without writeback: resident pages, dirty
// state, and readahead tracking all die with the server's RAM. Dirty pages
// that had not reached the disk are simply gone — which is exactly why NFSv3
// clients must not trust unstable WRITEs until COMMIT (or a FileSync ack)
// and must re-send them when the write verifier changes across a restart.
func (c *PageCache) Crash() {
	c.pages = make(map[pageKey]*page)
	c.lru.Init()
	c.dirtyLRU.Init()
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
				c.markClean(pg)
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

// ReadThen implements Store.
func (s *DiskStore) ReadThen(op *Op, id FileID, size, off int64, count int, dst []byte, next func(*Op)) {
	if off >= size {
		op.N = 0
		next(op)
		return
	}
	op.N = min(count, int(size-off))
	if dst != nil {
		clear(dst[:op.N])
	}
	s.cache.ReadThen(op, id, off, op.N, next)
}

// WriteThen implements Store.
func (s *DiskStore) WriteThen(op *Op, id FileID, off int64, count int, data []byte, stable bool, next func(*Op)) {
	if !stable {
		s.cache.WriteThen(op, id, off, count, next)
		return
	}
	op.synced = next
	s.cache.WriteThen(op, id, off, count, commitWritten)
}

// commitWritten commits what a stable write wrote.
func commitWritten(op *Op) {
	op.cache.CommitThen(op, op.id, op.off, op.n, op.synced)
}

// CommitThen implements Store.
func (s *DiskStore) CommitThen(op *Op, id FileID, off int64, count int, next func(*Op)) {
	s.cache.CommitThen(op, id, off, count, next)
}

// Truncate implements Store.
func (s *DiskStore) Truncate(id FileID, size int64) {}

// Drop implements Store.
func (s *DiskStore) Drop(id FileID) { s.cache.Drop(id) }
