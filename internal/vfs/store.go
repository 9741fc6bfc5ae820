package vfs

// Store holds file data for the namespace layer. Implementations charge
// whatever simulated time their medium costs; CPU costs of moving data
// between the store and transport buffers are charged by the NFS server
// layer, which knows whether a copy actually happens.
//
// The data calls are chains: each calls next(op) once it is done, at once
// when the medium costs no time.
type Store interface {
	// ReadThen copies up to count bytes at off of file id into dst (when
	// non-nil), bounded by the current size, and sets op.N to the bytes read.
	ReadThen(op *Op, id FileID, size int64, off int64, count int, dst []byte, next func(*Op))
	// WriteThen stores count bytes at off (data may be nil in phantom mode).
	WriteThen(op *Op, id FileID, off int64, count int, data []byte, stable bool, next func(*Op))
	// CommitThen flushes dirty data in [off, off+count) (0,0 = whole file).
	CommitThen(op *Op, id FileID, off int64, count int, next func(*Op))
	// Truncate adjusts stored data to the new size.
	Truncate(id FileID, size int64)
	// Drop discards all data of a removed file.
	Drop(id FileID)
}

// Op is one data call in flight (FS.ReadThen, WriteThen or CommitThen) in
// storage its caller owns: its results, and what the namespace, the page
// cache and the disk array keep across its waits.
type Op struct {
	N   int   // bytes read or written
	EOF bool  // a read reached the end of the file
	Err error // the call failed before it reached the store

	fn  func(any) // the caller's continuation
	arg any
	ns  *Namespace
	ino *inode // the file, for the namespace's step after the store call

	// The page cache's call: its range, the pages it has yet to pass, the
	// run of missed pages, what its insert and its writebacks go on with.
	cache              *PageCache
	id                 FileID
	off                int64
	n                  int
	pg, last           int64
	missStart, missEnd int64
	fill               int64 // the last page a miss run's read brought in
	key                pageKey
	dirty              bool
	victims            []*page
	synced             func(*Op) // a stable write's step after its commit
	done               func(*Op) // the page cache call's continuation
	filled             func(*Op) // a miss run's continuation
	inserted           func(*Op) // insert's continuation

	// The disk array's transfer: its first unit not yet done, and what it
	// goes on with.
	wait    *stripeUnit
	xferred func(*Op)
}

// MemStore is the tmpfs-equivalent data store: all file contents live in
// memory, reads and writes cost nothing beyond the copies charged at the
// NFS layer. Contents are materialized only when built with materialize
// set, so phantom-mode experiments can use terabyte-scale files.
type MemStore struct {
	materialize bool
	files       map[FileID][]byte
}

// NewMemStore builds a memory store. materialize selects whether actual
// bytes are kept (tests) or only sizes (large experiments).
func NewMemStore(materialize bool) *MemStore {
	return &MemStore{materialize: materialize, files: make(map[FileID][]byte)}
}

// ReadThen implements Store.
func (s *MemStore) ReadThen(op *Op, id FileID, size, off int64, count int, dst []byte, next func(*Op)) {
	op.N = 0
	if off < size {
		op.N = min(count, int(size-off))
	}
	if n := op.N; n > 0 && dst != nil && s.materialize {
		copied := 0
		if content := s.files[id]; off < int64(len(content)) {
			copied = copy(dst[:n], content[off:])
		}
		clear(dst[copied:n]) // hole
	}
	next(op)
}

// WriteThen implements Store.
func (s *MemStore) WriteThen(op *Op, id FileID, off int64, count int, data []byte, stable bool, next func(*Op)) {
	if s.materialize {
		content := s.files[id]
		end := off + int64(count)
		if int64(len(content)) < end {
			grown := make([]byte, end)
			copy(grown, content)
			content = grown
		}
		if data != nil {
			copy(content[off:end], data[:count])
		}
		s.files[id] = content
	}
	next(op)
}

// CommitThen implements Store (memory is always "stable").
func (s *MemStore) CommitThen(op *Op, id FileID, off int64, count int, next func(*Op)) { next(op) }

// Truncate implements Store.
func (s *MemStore) Truncate(id FileID, size int64) {
	if !s.materialize {
		return
	}
	content := s.files[id]
	if int64(len(content)) > size {
		s.files[id] = content[:size]
	}
}

// Drop implements Store.
func (s *MemStore) Drop(id FileID) { delete(s.files, id) }
