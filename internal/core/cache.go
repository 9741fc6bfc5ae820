package core

import (
	"repro/internal/des"
	"repro/internal/nfs3"
	"repro/internal/trace"
)

// Client-side metadata caching: the attribute cache and lookup (dnlc)
// cache every real NFS client carries. The paper's introduction motivates
// NFS/RDMA partly by the limits of client *data* caching (memory pressure,
// coherence cost at scale); metadata caching, by contrast, is cheap and
// standard, and without it path resolution would dominate small-file
// workloads. Both caches use a simple time-to-live, like actimeo.

// AttrCache caches fattr3 results and directory lookups with a TTL.
type AttrCache struct {
	sim   *des.Sim
	ttl   des.Duration
	track string // client node name, for trace instants
	tot   *Totals

	attrs   map[nfs3.FH]attrEntry
	lookups map[lookupKey]lookupEntry

	// Stats.
	AttrHits, AttrMisses     int64
	LookupHits, LookupMisses int64
}

type attrEntry struct {
	attr    nfs3.FAttr
	expires des.Time
}

type lookupKey struct {
	dir  nfs3.FH
	name string
}

type lookupEntry struct {
	fh      nfs3.FH
	expires des.Time
}

// EnableAttrCache turns on metadata caching for this client with the given
// TTL (NFS actimeo is typically 3-60 seconds).
func (c *Client) EnableAttrCache(ttl des.Duration) *AttrCache {
	c.attrCache = &AttrCache{
		sim:     c.Node.Sim(),
		ttl:     ttl,
		track:   c.Node.Name(),
		tot:     &c.cluster.Totals,
		attrs:   make(map[nfs3.FH]attrEntry),
		lookups: make(map[lookupKey]lookupEntry),
	}
	return c.attrCache
}

// AttrCacheStats returns the cache, or nil when disabled.
func (c *Client) AttrCacheStats() *AttrCache { return c.attrCache }

func (ac *AttrCache) putAttr(fh nfs3.FH, attr nfs3.FAttr) {
	ac.attrs[fh] = attrEntry{attr: attr, expires: ac.sim.Now() + des.Time(ac.ttl)}
}

// mark emits a cache hit/miss instant when tracing is on.
func (ac *AttrCache) mark(kind trace.Kind, name string) {
	if tr := ac.sim.Tracer(); tr != nil {
		tr.Instant(int64(ac.sim.Now()), trace.LayerCore, kind, ac.track, name, 0, 0)
	}
}

func (ac *AttrCache) getAttr(fh nfs3.FH) (nfs3.FAttr, bool) {
	e, ok := ac.attrs[fh]
	if !ok || ac.sim.Now() >= e.expires {
		ac.AttrMisses++
		ac.tot.AttrMisses++
		ac.mark(trace.KindCacheMiss, "attr-miss")
		return nfs3.FAttr{}, false
	}
	ac.AttrHits++
	ac.tot.AttrHits++
	ac.mark(trace.KindCacheHit, "attr-hit")
	return e.attr, true
}

func (ac *AttrCache) invalidate(fh nfs3.FH) {
	delete(ac.attrs, fh)
}

func (ac *AttrCache) putLookup(dir nfs3.FH, name string, fh nfs3.FH) {
	ac.lookups[lookupKey{dir, name}] = lookupEntry{fh: fh, expires: ac.sim.Now() + des.Time(ac.ttl)}
}

func (ac *AttrCache) getLookup(dir nfs3.FH, name string) (nfs3.FH, bool) {
	e, ok := ac.lookups[lookupKey{dir, name}]
	if !ok || ac.sim.Now() >= e.expires {
		ac.LookupMisses++
		ac.tot.AttrMisses++
		ac.mark(trace.KindCacheMiss, "lookup-miss")
		return nfs3.FH{}, false
	}
	ac.LookupHits++
	ac.tot.AttrHits++
	ac.mark(trace.KindCacheHit, "lookup-hit")
	return e.fh, true
}

func (ac *AttrCache) invalidateLookup(dir nfs3.FH, name string) {
	delete(ac.lookups, lookupKey{dir, name})
}

// lookup resolves one path component through the cache.
func (c *Client) lookup(p *des.Proc, dir nfs3.FH, name string) (nfs3.FH, nfs3.FAttr, error) {
	if c.attrCache != nil {
		if fh, ok := c.attrCache.getLookup(dir, name); ok {
			if attr, ok := c.attrCache.getAttr(fh); ok {
				return fh, attr, nil
			}
			// Handle cached but attributes stale: one GETATTR beats a
			// LOOKUP (it skips directory traversal server-side).
			attr, err := c.NFS.GetAttr(p, fh)
			if err == nil {
				c.attrCache.putAttr(fh, attr)
				return fh, attr, nil
			}
			// Stale handle: fall through to a fresh lookup.
			c.attrCache.invalidateLookup(dir, name)
		}
	}
	fh, attr, err := c.NFS.Lookup(p, dir, name)
	if err != nil {
		return nfs3.FH{}, nfs3.FAttr{}, err
	}
	if c.attrCache != nil {
		c.attrCache.putLookup(dir, name, fh)
		c.attrCache.putAttr(fh, attr)
	}
	return fh, attr, nil
}

// Stat returns the attributes at path, served from the attribute cache when
// fresh.
func (c *Client) Stat(p *des.Proc, path string) (nfs3.FAttr, error) {
	dir, name, err := c.resolvePath(p, path)
	if err != nil {
		return nfs3.FAttr{}, err
	}
	if name == "." {
		return c.NFS.GetAttr(p, dir)
	}
	_, attr, err := c.lookup(p, dir, name)
	return attr, err
}
