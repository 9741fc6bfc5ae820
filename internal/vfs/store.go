package vfs

import (
	"repro/internal/des"
)

// Store holds file data for the namespace layer. Implementations charge
// whatever simulated time their medium costs; CPU costs of moving data
// between the store and transport buffers are charged by the NFS server
// layer, which knows whether a copy actually happens.
type Store interface {
	// Read copies up to count bytes at off of file id into dst (when
	// non-nil), bounded by the current size. It returns bytes read.
	Read(p *des.Proc, id FileID, size int64, off int64, count int, dst []byte) int
	// Write stores count bytes at off (data may be nil in phantom mode).
	Write(p *des.Proc, id FileID, off int64, count int, data []byte, stable bool)
	// Commit flushes dirty data in [off, off+count) (0,0 = whole file).
	Commit(p *des.Proc, id FileID, off int64, count int)
	// Truncate adjusts stored data to the new size.
	Truncate(id FileID, size int64)
	// Drop discards all data of a removed file.
	Drop(id FileID)
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

// Read implements Store.
func (s *MemStore) Read(p *des.Proc, id FileID, size, off int64, count int, dst []byte) int {
	if off >= size {
		return 0
	}
	n := count
	if int64(n) > size-off {
		n = int(size - off)
	}
	if dst != nil && s.materialize {
		copied := 0
		if content := s.files[id]; off < int64(len(content)) {
			copied = copy(dst[:n], content[off:])
		}
		clear(dst[copied:n]) // hole
	}
	return n
}

// Write implements Store.
func (s *MemStore) Write(p *des.Proc, id FileID, off int64, count int, data []byte, stable bool) {
	if !s.materialize {
		return
	}
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

// Commit implements Store (memory is always "stable").
func (s *MemStore) Commit(p *des.Proc, id FileID, off int64, count int) {}

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
