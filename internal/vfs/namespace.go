package vfs

import (
	"sort"

	"repro/internal/des"
)

// MaxNameLen bounds directory entry names (NFSv3 name limit we enforce).
const MaxNameLen = 255

type inode struct {
	attr     Attr
	children map[string]FileID // directories
	target   string            // symlinks
}

// Namespace is the common in-memory hierarchy over a pluggable data Store:
// with a MemStore it is the tmpfs back end, with a DiskStore it is the
// XFS-on-RAID back end.
type Namespace struct {
	sim    *des.Sim
	store  Store
	inodes map[FileID]*inode
	nextID FileID
	root   FileID
	total  int64 // advertised capacity
	used   int64
	names  []string // ReadDir's sorted child names, kept between calls
}

var _ FS = (*Namespace)(nil)

// NewNamespace creates an empty file system of the given advertised
// capacity over the store.
func NewNamespace(sim *des.Sim, store Store, capacity int64) *Namespace {
	ns := &Namespace{
		sim:    sim,
		store:  store,
		inodes: make(map[FileID]*inode),
		nextID: 1,
		total:  capacity,
	}
	ns.root = ns.newInode(TypeDir, 0755).attr.FileID
	return ns
}

func (ns *Namespace) newInode(t FileType, mode uint32) *inode {
	id := ns.nextID
	ns.nextID++
	now := ns.sim.Now()
	ino := &inode{attr: Attr{
		Type: t, Mode: mode, Nlink: 1, FileID: id,
		Atime: now, Mtime: now, Ctime: now,
	}}
	if t == TypeDir {
		ino.children = make(map[string]FileID)
		ino.attr.Nlink = 2
	}
	ns.inodes[id] = ino
	return ino
}

func (ns *Namespace) get(id FileID) (*inode, error) {
	ino, ok := ns.inodes[id]
	if !ok {
		return nil, ErrStale
	}
	return ino, nil
}

func (ns *Namespace) getDir(id FileID) (*inode, error) {
	ino, err := ns.get(id)
	if err != nil {
		return nil, err
	}
	if ino.attr.Type != TypeDir {
		return nil, ErrNotDir
	}
	return ino, nil
}

func checkName(name string) error {
	if name == "" || name == "." || name == ".." {
		return ErrInval
	}
	if len(name) > MaxNameLen {
		return ErrNameTooLong
	}
	return nil
}

// Root implements FS.
func (ns *Namespace) Root() FileID { return ns.root }

// Lookup implements FS.
func (ns *Namespace) Lookup(p *des.Proc, dir FileID, name string) (FileID, Attr, error) {
	d, err := ns.getDir(dir)
	if err != nil {
		return 0, Attr{}, err
	}
	if name == "." {
		return dir, d.attr, nil
	}
	id, ok := d.children[name]
	if !ok {
		return 0, Attr{}, ErrNotExist
	}
	ino := ns.inodes[id]
	return id, ino.attr, nil
}

// GetAttr implements FS.
func (ns *Namespace) GetAttr(p *des.Proc, id FileID) (Attr, error) {
	ino, err := ns.get(id)
	if err != nil {
		return Attr{}, err
	}
	return ino.attr, nil
}

// SetAttr implements FS.
func (ns *Namespace) SetAttr(p *des.Proc, id FileID, s SetAttr) (Attr, error) {
	ino, err := ns.get(id)
	if err != nil {
		return Attr{}, err
	}
	if s.Mode != nil {
		ino.attr.Mode = *s.Mode
	}
	if s.UID != nil {
		ino.attr.UID = *s.UID
	}
	if s.GID != nil {
		ino.attr.GID = *s.GID
	}
	if s.Size != nil {
		if ino.attr.Type == TypeDir {
			return Attr{}, ErrIsDir
		}
		ns.used += *s.Size - ino.attr.Size
		ino.attr.Size = *s.Size
		ns.store.Truncate(id, *s.Size)
	}
	ino.attr.Ctime = ns.sim.Now()
	if s.SetTime {
		ino.attr.Mtime = ns.sim.Now()
	}
	return ino.attr, nil
}

func (ns *Namespace) createIn(dir FileID, name string, t FileType, mode uint32) (*inode, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	d, err := ns.getDir(dir)
	if err != nil {
		return nil, err
	}
	if _, exists := d.children[name]; exists {
		return nil, ErrExist
	}
	ino := ns.newInode(t, mode)
	d.children[name] = ino.attr.FileID
	if t == TypeDir {
		d.attr.Nlink++
	}
	d.attr.Mtime = ns.sim.Now()
	return ino, nil
}

// Create implements FS.
func (ns *Namespace) Create(p *des.Proc, dir FileID, name string, mode uint32) (FileID, Attr, error) {
	ino, err := ns.createIn(dir, name, TypeReg, mode)
	if err != nil {
		return 0, Attr{}, err
	}
	return ino.attr.FileID, ino.attr, nil
}

// Mkdir implements FS.
func (ns *Namespace) Mkdir(p *des.Proc, dir FileID, name string, mode uint32) (FileID, Attr, error) {
	ino, err := ns.createIn(dir, name, TypeDir, mode)
	if err != nil {
		return 0, Attr{}, err
	}
	return ino.attr.FileID, ino.attr, nil
}

// Symlink implements FS.
func (ns *Namespace) Symlink(p *des.Proc, dir FileID, name, target string) (FileID, Attr, error) {
	ino, err := ns.createIn(dir, name, TypeLnk, 0777)
	if err != nil {
		return 0, Attr{}, err
	}
	ino.target = target
	ino.attr.Size = int64(len(target))
	return ino.attr.FileID, ino.attr, nil
}

// ReadLink implements FS.
func (ns *Namespace) ReadLink(p *des.Proc, id FileID) (string, error) {
	ino, err := ns.get(id)
	if err != nil {
		return "", err
	}
	if ino.attr.Type != TypeLnk {
		return "", ErrInval
	}
	return ino.target, nil
}

func (ns *Namespace) unlink(dir FileID, name string, wantDir bool) error {
	d, err := ns.getDir(dir)
	if err != nil {
		return err
	}
	id, ok := d.children[name]
	if !ok {
		return ErrNotExist
	}
	ino := ns.inodes[id]
	isDir := ino.attr.Type == TypeDir
	if wantDir && !isDir {
		return ErrNotDir
	}
	if !wantDir && isDir {
		return ErrIsDir
	}
	if isDir && len(ino.children) > 0 {
		return ErrNotEmpty
	}
	delete(d.children, name)
	if isDir {
		d.attr.Nlink--
	}
	d.attr.Mtime = ns.sim.Now()
	ino.attr.Nlink--
	if ino.attr.Nlink == 0 || (isDir && ino.attr.Nlink <= 1) {
		ns.used -= ino.attr.Size
		ns.store.Drop(id)
		delete(ns.inodes, id)
	}
	return nil
}

// Remove implements FS.
func (ns *Namespace) Remove(p *des.Proc, dir FileID, name string) error {
	return ns.unlink(dir, name, false)
}

// Rmdir implements FS.
func (ns *Namespace) Rmdir(p *des.Proc, dir FileID, name string) error {
	return ns.unlink(dir, name, true)
}

// Rename implements FS.
func (ns *Namespace) Rename(p *des.Proc, fromDir FileID, fromName string, toDir FileID, toName string) error {
	if err := checkName(toName); err != nil {
		return err
	}
	fd, err := ns.getDir(fromDir)
	if err != nil {
		return err
	}
	td, err := ns.getDir(toDir)
	if err != nil {
		return err
	}
	id, ok := fd.children[fromName]
	if !ok {
		return ErrNotExist
	}
	if existing, ok := td.children[toName]; ok {
		if existing == id {
			return nil
		}
		// Replace: target must be removable.
		vt := ns.inodes[existing]
		if vt.attr.Type == TypeDir {
			if len(vt.children) > 0 {
				return ErrNotEmpty
			}
			if err := ns.unlink(toDir, toName, true); err != nil {
				return err
			}
		} else if err := ns.unlink(toDir, toName, false); err != nil {
			return err
		}
	}
	delete(fd.children, fromName)
	td.children[toName] = id
	moved := ns.inodes[id]
	if moved.attr.Type == TypeDir && fromDir != toDir {
		fd.attr.Nlink--
		td.attr.Nlink++
	}
	now := ns.sim.Now()
	fd.attr.Mtime, td.attr.Mtime, moved.attr.Ctime = now, now, now
	return nil
}

// Link implements FS.
func (ns *Namespace) Link(p *des.Proc, id FileID, dir FileID, name string) (Attr, error) {
	if err := checkName(name); err != nil {
		return Attr{}, err
	}
	ino, err := ns.get(id)
	if err != nil {
		return Attr{}, err
	}
	if ino.attr.Type == TypeDir {
		return Attr{}, ErrIsDir
	}
	d, err := ns.getDir(dir)
	if err != nil {
		return Attr{}, err
	}
	if _, exists := d.children[name]; exists {
		return Attr{}, ErrExist
	}
	d.children[name] = id
	ino.attr.Nlink++
	ino.attr.Ctime = ns.sim.Now()
	return ino.attr, nil
}

// ReadThen implements FS.
func (ns *Namespace) ReadThen(op *Op, id FileID, off int64, count int, dst []byte, fn func(any), arg any) {
	ino, err := ns.begin(op, id, off, count, fn, arg)
	if err != nil {
		op.finish(err)
		return
	}
	ns.store.ReadThen(op, id, ino.attr.Size, off, count, dst, nsRead)
}

// nsRead ends a read once the store has served it.
func nsRead(op *Op) {
	op.ino.attr.Atime = op.ns.sim.Now()
	op.EOF = op.off+int64(op.N) >= op.ino.attr.Size
	op.finish(nil)
}

// WriteThen implements FS.
func (ns *Namespace) WriteThen(op *Op, id FileID, off int64, count int, data []byte, stable bool, fn func(any), arg any) {
	_, err := ns.begin(op, id, off, count, fn, arg)
	if err == nil && ns.total > 0 && ns.used+int64(count) > ns.total {
		err = ErrNoSpace
	}
	if err != nil {
		op.finish(err)
		return
	}
	op.N = count
	ns.store.WriteThen(op, id, off, count, data, stable, nsWritten)
}

// nsWritten ends a write once the store has taken it.
func nsWritten(op *Op) {
	ns, ino := op.ns, op.ino
	if end := op.off + int64(op.N); end > ino.attr.Size {
		ns.used += end - ino.attr.Size
		ino.attr.Size = end
	}
	now := ns.sim.Now()
	ino.attr.Mtime, ino.attr.Ctime = now, now
	op.finish(nil)
}

// begin readies op for a read or write of [off, off+count) of file id that
// ends in fn(arg), and returns the file, or why the call fails before it
// reaches the store.
func (ns *Namespace) begin(op *Op, id FileID, off int64, count int, fn func(any), arg any) (*inode, error) {
	op.ns, op.fn, op.arg, op.off, op.N, op.EOF = ns, fn, arg, off, 0, false
	ino, err := ns.get(id)
	switch {
	case err != nil:
		return nil, err
	case ino.attr.Type == TypeDir:
		return nil, ErrIsDir
	case off < 0 || count < 0:
		return nil, ErrInval
	}
	op.ino = ino
	return ino, nil
}

// CommitThen implements FS.
func (ns *Namespace) CommitThen(op *Op, id FileID, off int64, count int, fn func(any), arg any) {
	op.fn, op.arg = fn, arg
	if _, err := ns.get(id); err != nil {
		op.finish(err)
		return
	}
	ns.store.CommitThen(op, id, off, count, committed)
}

func committed(op *Op) { op.finish(nil) }

// finish ends op's call with err: the caller's continuation.
func (op *Op) finish(err error) {
	op.Err = err
	op.fn(op.arg)
}

// ReadDir implements FS.
func (ns *Namespace) ReadDir(p *des.Proc, dir FileID, cookie int64, maxEntries int, into []DirEntry) ([]DirEntry, bool, error) {
	d, err := ns.getDir(dir)
	if err != nil {
		return into, false, err
	}
	names := ns.names[:0]
	for name := range d.children {
		names = append(names, name)
	}
	sort.Strings(names)
	ns.names = names
	n := len(into)
	for i, name := range names {
		ck := int64(i + 1)
		if ck <= cookie {
			continue
		}
		if maxEntries > 0 && len(into)-n >= maxEntries {
			return into, false, nil
		}
		into = append(into, DirEntry{FileID: d.children[name], Name: name, Cookie: ck})
	}
	return into, true, nil
}

// FSStat implements FS.
func (ns *Namespace) FSStat() (total, free int64) {
	return ns.total, ns.total - ns.used
}
