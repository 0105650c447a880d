package names

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"paramecium/internal/clock"
	"paramecium/internal/obj"
)

// Space is the system-wide hierarchical name space of object
// instances, managed by the directory service in the nucleus. Every
// lookup charges one hop per path component, so experiments can
// measure lookup cost versus depth (experiment F4).
//
// The tree is copy-on-write: lookups (Bind, List, Walk) read an
// atomically published immutable snapshot and take no lock at all, so
// hot-path name resolution scales across cores. Mutations (Register,
// Replace, Unregister) serialize on a writer lock, path-copy the
// affected directories, and publish a new root.
type Space struct {
	meter *clock.Meter

	wmu  sync.Mutex          // serializes mutations
	root atomic.Pointer[dir] // current published snapshot
}

// dir is one directory level. Once a dir has been published via
// Space.root it is immutable; mutations clone every dir on the path
// they change.
type dir struct {
	children map[string]*entry
}

// entry is either a subdirectory or an object handle (never both).
// Entries are immutable after publication.
type entry struct {
	dir  *dir
	inst obj.Instance
}

func newDir() *dir { return &dir{children: make(map[string]*entry)} }

// clone returns a mutable copy of d with the children map duplicated.
func (d *dir) clone() *dir {
	nd := &dir{children: make(map[string]*entry, len(d.children)+1)}
	for k, v := range d.children {
		nd.children[k] = v
	}
	return nd
}

// clonePath is the copy-on-write walk shared by all mutations: it
// clones root and every directory down to the parent of parts' leaf,
// returning the new root and that cloned parent. With create, missing
// intermediate directories are created (Register); otherwise a
// missing or non-directory component fails with ErrNotFound
// (Replace, Unregister). An existing non-directory component under
// create fails with ErrNotDir. On error, nothing is published.
func clonePath(root *dir, parts []string, path string, create bool) (newRoot, parent *dir, err error) {
	newRoot = root.clone()
	d := newRoot
	for _, c := range parts[:len(parts)-1] {
		e, ok := d.children[c]
		if !ok {
			if !create {
				return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, path)
			}
			nd := newDir()
			d.children[c] = &entry{dir: nd}
			d = nd
			continue
		}
		if e.dir == nil {
			if !create {
				return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, path)
			}
			return nil, nil, fmt.Errorf("%w: %q under %q", ErrNotDir, c, path)
		}
		nd := e.dir.clone()
		d.children[c] = &entry{dir: nd}
		d = nd
	}
	return newRoot, d, nil
}

// NewSpace builds an empty name space. meter may be nil.
func NewSpace(meter *clock.Meter) *Space {
	s := &Space{meter: meter}
	s.root.Store(newDir())
	return s
}

func (s *Space) chargeHops(n int) {
	if s.meter != nil && n > 0 {
		s.meter.ChargeNFor(clock.KernelDomain, clock.OpNameLookupHop, uint64(n))
	}
}

// Register binds an instance to path, creating intermediate
// directories as needed. Registering over an existing name fails; use
// Replace for interposition.
func (s *Space) Register(path string, inst obj.Instance) error {
	if inst == nil {
		return fmt.Errorf("%w: nil instance for %q", ErrBadPath, path)
	}
	parts, err := Split(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("%w: cannot register at root", ErrBadPath)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	root, d, err := clonePath(s.root.Load(), parts, path, true)
	if err != nil {
		return err
	}
	leaf := parts[len(parts)-1]
	if _, dup := d.children[leaf]; dup {
		return fmt.Errorf("%w: %q", ErrExists, path)
	}
	d.children[leaf] = &entry{inst: inst}
	s.root.Store(root)
	return nil
}

// Replace atomically swaps the instance registered at path for a new
// one and returns the previous instance. This is the interposition
// primitive: "build an interposing object … and replace the object
// handle in the name space. All further lookups … will result in a
// reference to the interposing agent."
func (s *Space) Replace(path string, inst obj.Instance) (obj.Instance, error) {
	if inst == nil {
		return nil, fmt.Errorf("%w: nil instance for %q", ErrBadPath, path)
	}
	parts, err := Split(path)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: root is a directory", ErrIsDir)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	// Validate against the current snapshot first, so failures leave
	// the published tree untouched.
	e, err := lookup(s.root.Load(), parts)
	if err != nil {
		return nil, err
	}
	if e.inst == nil {
		return nil, fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	prev := e.inst
	root, d, err := clonePath(s.root.Load(), parts, path, false)
	if err != nil {
		return nil, err
	}
	d.children[parts[len(parts)-1]] = &entry{inst: inst}
	s.root.Store(root)
	return prev, nil
}

// Unregister removes the instance at path. Directories are removed
// only when empty.
func (s *Space) Unregister(path string) error {
	parts, err := Split(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("%w: cannot unregister root", ErrBadPath)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	root, d, err := clonePath(s.root.Load(), parts, path, false)
	if err != nil {
		return err
	}
	leaf := parts[len(parts)-1]
	e, ok := d.children[leaf]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	if e.dir != nil && len(e.dir.children) > 0 {
		return fmt.Errorf("names: directory %q not empty", path)
	}
	delete(d.children, leaf)
	s.root.Store(root)
	return nil
}

// Bind resolves path to the registered instance, charging one hop per
// component. Bind is lock-free: it walks the current snapshot.
func (s *Space) Bind(path string) (obj.Instance, error) {
	parts, err := Split(path)
	if err != nil {
		return nil, err
	}
	s.chargeHops(len(parts))
	e, err := lookup(s.root.Load(), parts)
	if err != nil {
		return nil, err
	}
	if e.inst == nil {
		return nil, fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	return e.inst, nil
}

// lookup walks one snapshot; it needs no locking because published
// trees are immutable.
func lookup(root *dir, parts []string) (*entry, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: root is a directory", ErrIsDir)
	}
	d := root
	for i, c := range parts {
		e, ok := d.children[c]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, "/"+joinParts(parts[:i+1]))
		}
		if i == len(parts)-1 {
			return e, nil
		}
		if e.dir == nil {
			return nil, fmt.Errorf("%w: %q", ErrNotDir, "/"+joinParts(parts[:i+1]))
		}
		d = e.dir
	}
	return nil, ErrNotFound // unreachable
}

func joinParts(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += "/"
		}
		out += p
	}
	return out
}

// list returns the sorted names under a directory path ("" or "/" for
// the root). Names of subdirectories carry a trailing slash.
func (s *Space) list(path string) ([]string, error) {
	parts, err := Split(path)
	if err != nil {
		return nil, err
	}
	d := s.root.Load()
	for _, c := range parts {
		e, ok := d.children[c]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, path)
		}
		if e.dir == nil {
			return nil, fmt.Errorf("%w: %q", ErrNotDir, path)
		}
		d = e.dir
	}
	out := make([]string, 0, len(d.children))
	for name, e := range d.children {
		if e.dir != nil {
			name += "/"
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// Walk visits every registered instance in depth-first name order.
// The walk sees one consistent snapshot: mutations published during
// the walk are not observed.
func (s *Space) Walk(fn func(path string, inst obj.Instance) error) error {
	return walkDir(s.root.Load(), "", fn)
}

func walkDir(d *dir, prefix string, fn func(string, obj.Instance) error) error {
	names := make([]string, 0, len(d.children))
	for n := range d.children {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		e := d.children[n]
		p := prefix + "/" + n
		if e.dir != nil {
			if err := walkDir(e.dir, p, fn); err != nil {
				return err
			}
			continue
		}
		if err := fn(p, e.inst); err != nil {
			return err
		}
	}
	return nil
}
