package core

import (
	"container/list"
	"fmt"
	"slices"

	"repro/internal/des"
	"repro/internal/nfs3"
	"repro/internal/trace"
)

// Client-side data caching with close-to-open consistency — the standard
// NFS client behaviour whose *limits* motivate the paper's introduction
// (client memory pressure and revalidation cost are why fast uncached
// server access matters). The cache is page-based and bounded: reads are
// served locally while the file's cached mtime validator holds, writes are
// buffered dirty and pushed back on Flush (write-back + COMMIT), and a
// changed validator drops every cached page of the file.
//
// The cache is deliberately opt-in and separate from the direct-I/O path
// used by the paper's experiments: enable it with Client.EnableDataCache
// and use File.ReadAtCached / WriteAtCached / Flush.

const dataCachePageSize = 64 << 10

// DataCache is one client's file data cache.
type DataCache struct {
	c        *Client
	maxBytes int64
	files    map[nfs3.FH]*cachedFile
	lru      *list.List // *cachedPage, front = most recent
	bytes    int64

	// Stats.
	Hits, Misses   int64
	Revalidations  int64
	Invalidations  int64
	WritebackPages int64
}

type cachedFile struct {
	fh    nfs3.FH
	mtime nfs3.NFSTime // validator
	size  int64
	pages map[int64]*cachedPage
}

type cachedPage struct {
	file  *cachedFile
	idx   int64
	data  []byte
	valid int // bytes of data that are meaningful
	dirty bool
	elem  *list.Element
}

// EnableDataCache turns on client-side data caching bounded to maxBytes.
// Requires the attribute cache (enabled implicitly if absent) for
// validator bookkeeping.
func (c *Client) EnableDataCache(maxBytes int64) *DataCache {
	if c.attrCache == nil {
		c.EnableAttrCache(3e9) // 3s actimeo default
	}
	c.dataCache = &DataCache{
		c:        c,
		maxBytes: maxBytes,
		files:    make(map[nfs3.FH]*cachedFile),
		lru:      list.New(),
	}
	return c.dataCache
}

// DataCacheStats returns the cache, or nil when disabled.
func (c *Client) DataCacheStats() *DataCache { return c.dataCache }

// CachedBytes returns resident cached bytes.
func (dc *DataCache) CachedBytes() int64 { return dc.bytes }

func (dc *DataCache) file(fh nfs3.FH) *cachedFile {
	cf, ok := dc.files[fh]
	if !ok {
		cf = &cachedFile{fh: fh, pages: make(map[int64]*cachedPage)}
		dc.files[fh] = cf
	}
	return cf
}

// revalidate checks the file's mtime against the cached validator,
// dropping the file's pages on change (close-to-open: another client wrote).
func (dc *DataCache) revalidate(p *des.Proc, f *File, cf *cachedFile) error {
	attr, err := f.c.NFS.GetAttr(p, f.fh)
	if err != nil {
		return err
	}
	dc.Revalidations++
	if f.c.attrCache != nil {
		f.c.attrCache.putAttr(f.fh, attr)
	}
	if attr.Mtime != cf.mtime {
		dc.invalidateFile(cf)
		cf.mtime = attr.Mtime
	}
	// Dirty pages are local truth: the file is at least as long as the last
	// of them reaches, whatever the server has seen so far.
	cf.size = int64(attr.Size)
	for idx, pg := range cf.pages {
		if pg.dirty {
			cf.size = max(cf.size, idx*dataCachePageSize+int64(pg.valid))
		}
	}
	return nil
}

// invalidateFile drops every clean page of the file (dirty pages are local
// truth awaiting writeback and survive).
func (dc *DataCache) invalidateFile(cf *cachedFile) {
	for idx, pg := range cf.pages {
		if pg.dirty {
			continue
		}
		dc.lru.Remove(pg.elem)
		delete(cf.pages, idx)
		dc.bytes -= int64(len(pg.data))
		dc.Invalidations++
	}
}

func (dc *DataCache) touch(pg *cachedPage) { dc.lru.MoveToFront(pg.elem) }

// insert adds a page, evicting LRU pages (flushing dirty victims) to stay
// within the bound.
func (dc *DataCache) insert(p *des.Proc, f *File, cf *cachedFile, idx int64, data []byte, valid int, dirty bool) *cachedPage {
	for dc.bytes+int64(len(data)) > dc.maxBytes {
		tail := dc.lru.Back()
		if tail == nil {
			break
		}
		victim := tail.Value.(*cachedPage)
		if victim.dirty {
			if err := dc.writeback(p, victim); err != nil {
				break // keep the page; caller will surface errors on Flush
			}
		}
		dc.lru.Remove(tail)
		delete(victim.file.pages, victim.idx)
		dc.bytes -= int64(len(victim.data))
	}
	pg := &cachedPage{file: cf, idx: idx, data: data, valid: valid, dirty: dirty}
	pg.elem = dc.lru.PushFront(pg)
	cf.pages[idx] = pg
	dc.bytes += int64(len(data))
	return pg
}

// writeback pushes one dirty page to the server (unstable; Flush commits).
func (dc *DataCache) writeback(p *des.Proc, pg *cachedPage) error {
	buf := dc.c.NewMaterializedBuffer(pg.valid)
	if d := buf.Bytes(); d != nil {
		copy(d, pg.data[:pg.valid])
	}
	f := &File{c: dc.c, fh: pg.file.fh}
	if _, err := f.WriteAt(p, buf, 0, pg.idx*dataCachePageSize, pg.valid, false); err != nil {
		return err
	}
	pg.dirty = false
	dc.WritebackPages++
	return nil
}

// fetch reads one page from the server into the cache.
func (dc *DataCache) fetch(p *des.Proc, f *File, cf *cachedFile, idx int64) (*cachedPage, error) {
	buf := dc.c.NewMaterializedBuffer(dataCachePageSize)
	n, _, err := f.ReadAt(p, buf, 0, idx*dataCachePageSize, dataCachePageSize, false)
	if err != nil {
		return nil, err
	}
	data := make([]byte, dataCachePageSize)
	if d := buf.Bytes(); d != nil {
		copy(data, d[:n])
	}
	return dc.insert(p, f, cf, idx, data, n, false), nil
}

// ReadAtCached reads through the client data cache into dst. It returns the
// bytes read and an EOF flag.
func (f *File) ReadAtCached(p *des.Proc, dst []byte, off int64) (int, bool, error) {
	dc := f.c.dataCache
	if dc == nil {
		return 0, false, fmt.Errorf("core: data cache not enabled")
	}
	cf := dc.file(f.fh)
	// Revalidate when the attribute entry has gone stale (actimeo model).
	if _, ok := f.c.attrCache.getAttr(f.fh); !ok || cf.mtime == (nfs3.NFSTime{}) && len(cf.pages) == 0 {
		if err := dc.revalidate(p, f, cf); err != nil {
			return 0, false, err
		}
	}
	got := 0
	for got < len(dst) {
		pos := off + int64(got)
		if pos >= cf.size {
			break
		}
		idx := pos / dataCachePageSize
		tr := f.c.Node.Sim().Tracer()
		pg, ok := cf.pages[idx]
		if ok {
			dc.Hits++
			dc.c.cluster.Totals.DataHits++
			if tr != nil {
				tr.Instant(int64(p.Now()), trace.LayerCore, trace.KindCacheHit,
					f.c.Node.Name(), "data-hit", uint64(idx), 0)
			}
			dc.touch(pg)
		} else {
			dc.Misses++
			dc.c.cluster.Totals.DataMisses++
			if tr != nil {
				tr.Instant(int64(p.Now()), trace.LayerCore, trace.KindCacheMiss,
					f.c.Node.Name(), "data-miss", uint64(idx), 0)
			}
			var err error
			pg, err = dc.fetch(p, f, cf, idx)
			if err != nil {
				return got, false, err
			}
		}
		// The page reaches to the end of the file or of the page: what lies
		// past pg.valid is a hole nobody wrote, and data holds zeros there.
		pageOff := int(pos - idx*dataCachePageSize)
		n := copy(dst[got:], pg.data[pageOff:min(dataCachePageSize, cf.size-idx*dataCachePageSize)])
		// Charge the local copy.
		f.c.Node.CPU.Copy(p, n)
		got += n
	}
	return got, off+int64(got) >= cf.size, nil
}

// WriteAtCached buffers src into the cache as dirty pages (write-back).
// Partial-page writes read-modify-write; Flush pushes everything out and
// commits.
func (f *File) WriteAtCached(p *des.Proc, src []byte, off int64) (int, error) {
	dc := f.c.dataCache
	if dc == nil {
		return 0, fmt.Errorf("core: data cache not enabled")
	}
	cf := dc.file(f.fh)
	written := 0
	for written < len(src) {
		pos := off + int64(written)
		idx := pos / dataCachePageSize
		pageOff := int(pos - idx*dataCachePageSize)
		n := dataCachePageSize - pageOff
		if rem := len(src) - written; n > rem {
			n = rem
		}
		pg, ok := cf.pages[idx]
		if !ok {
			if pageOff == 0 && n == dataCachePageSize {
				// Full-page overwrite: no fetch needed.
				pg = dc.insert(p, f, cf, idx, make([]byte, dataCachePageSize), 0, true)
			} else if idx*dataCachePageSize < cf.size {
				var err error
				pg, err = dc.fetch(p, f, cf, idx)
				if err != nil {
					return written, err
				}
			} else {
				pg = dc.insert(p, f, cf, idx, make([]byte, dataCachePageSize), 0, true)
			}
		}
		copy(pg.data[pageOff:], src[written:written+n])
		if pageOff+n > pg.valid {
			pg.valid = pageOff + n
		}
		pg.dirty = true
		dc.touch(pg)
		f.c.Node.CPU.Copy(p, n)
		written += n
		if end := pos + int64(n); end > cf.size {
			cf.size = end
		}
	}
	return written, nil
}

// Flush writes every dirty page of the file back, in page order, and commits
// (the NFS close/fsync path). The file's validator is refreshed so the
// client's own writes do not invalidate its cache.
func (f *File) Flush(p *des.Proc) error {
	dc := f.c.dataCache
	if dc == nil {
		return nil
	}
	cf := dc.file(f.fh)
	var dirty []int64
	for idx, pg := range cf.pages {
		if pg.dirty {
			dirty = append(dirty, idx)
		}
	}
	slices.Sort(dirty)
	for _, idx := range dirty {
		// A write-back blocks, and meanwhile eviction may have written the
		// page back or dropped it.
		if pg := cf.pages[idx]; pg != nil && pg.dirty {
			if err := dc.writeback(p, pg); err != nil {
				return err
			}
		}
	}
	if err := f.Commit(p); err != nil {
		return err
	}
	attr, err := f.c.NFS.GetAttr(p, f.fh)
	if err != nil {
		return err
	}
	cf.mtime = attr.Mtime
	cf.size = int64(attr.Size)
	if f.c.attrCache != nil {
		f.c.attrCache.putAttr(f.fh, attr)
	}
	return nil
}
