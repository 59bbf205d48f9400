package vfs

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Snapshot support: Save serializes the whole file system (preserving
// hard-link sharing, symlinks, owners and modes) and Load rebuilds it.
// A Chirp server uses this so visiting users' data — and the ACLs
// protecting it — survive server restarts, completing the "return"
// property across service lifetimes.

// snapNode is the wire form of one inode.
type snapNode struct {
	ID       uint64 // snapshot-local id; hard links share it
	Type     FileType
	Mode     uint32
	Owner    string
	Group    string
	Data     []byte
	Target   string
	Children map[string]uint64 // name -> node ID (directories)
	Mtime    int64
}

// snapImage is the serialized file system.
type snapImage struct {
	Version int
	Nodes   []snapNode
	Root    uint64
	Clock   int64
}

const snapVersion = 1

// Save writes a snapshot of the file system. The namespace lock is held
// shared across the walk (freezing the tree shape) and each inode's own
// lock is taken briefly while its contents are copied.
func (fs *FS) Save(w io.Writer) error {
	fs.treeMu.RLock()
	defer fs.treeMu.RUnlock()

	ids := map[*Inode]uint64{}
	var nodes []snapNode
	var walk func(n *Inode) uint64
	walk = func(n *Inode) uint64 {
		if id, ok := ids[n]; ok {
			return id
		}
		id := uint64(len(nodes) + 1)
		ids[n] = id
		nodes = append(nodes, snapNode{}) // reserve slot
		n.mu.RLock()
		sn := snapNode{
			ID:    id,
			Type:  n.ftype,
			Mode:  n.mode,
			Owner: n.owner,
			Group: n.group,
			Mtime: n.mtime.Load(),
		}
		if n.ftype == TypeRegular {
			sn.Data = append([]byte(nil), n.data...)
		}
		n.mu.RUnlock()
		switch n.ftype {
		case TypeSymlink:
			sn.Target = n.target
		case TypeDir:
			sn.Children = make(map[string]uint64, len(n.children))
			for name, child := range n.children {
				sn.Children[name] = walk(child)
			}
		}
		nodes[id-1] = sn
		return id
	}
	root := walk(fs.root)
	img := snapImage{Version: snapVersion, Nodes: nodes, Root: root, Clock: fs.clock.Load()}
	return gob.NewEncoder(w).Encode(&img)
}

// Load reconstructs a file system from a snapshot.
func Load(r io.Reader) (*FS, error) {
	var img snapImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("vfs: decoding snapshot: %w", err)
	}
	if img.Version != snapVersion {
		return nil, fmt.Errorf("vfs: unsupported snapshot version %d", img.Version)
	}
	byID := make(map[uint64]*Inode, len(img.Nodes))
	for _, sn := range img.Nodes {
		n := &Inode{
			ino:   nextIno(),
			ftype: sn.Type,
			mode:  sn.Mode,
			owner: sn.Owner,
			group: sn.Group,
		}
		n.mtime.Store(sn.Mtime)
		switch sn.Type {
		case TypeRegular:
			n.data = append([]byte(nil), sn.Data...)
		case TypeSymlink:
			n.target = sn.Target
		case TypeDir:
			n.children = make(map[string]*Inode)
		}
		byID[sn.ID] = n
	}
	// Second pass: wire directories and recount link counts.
	for _, sn := range img.Nodes {
		if sn.Type != TypeDir {
			continue
		}
		dir := byID[sn.ID]
		for name, childID := range sn.Children {
			child, ok := byID[childID]
			if !ok {
				return nil, fmt.Errorf("vfs: snapshot references missing node %d", childID)
			}
			dir.children[name] = child
			if child.ftype == TypeDir {
				dir.nlink++
			}
			child.nlink++
		}
	}
	root, ok := byID[img.Root]
	if !ok || root.ftype != TypeDir {
		return nil, fmt.Errorf("vfs: snapshot has no directory root")
	}
	root.nlink += 2 // "." and the notional parent
	for _, sn := range img.Nodes {
		if sn.Type == TypeDir {
			n := byID[sn.ID]
			if n != root {
				n.nlink++ // its own "."
			}
		}
	}
	fs := &FS{root: root}
	fs.clock.Store(img.Clock)
	return fs, nil
}

// Restore replaces fs's tree with from's in place, under the exclusive
// tree lock: every holder of fs sees the old tree or the new one, never
// a mix. The clock only moves forward, so no tick is reused, even on an
// old inode an open handle still reaches. from must be fresh from Load
// and unused afterwards; fs keeps its journal.
func (fs *FS) Restore(from *FS) {
	fs.treeMu.Lock()
	defer fs.treeMu.Unlock()
	fs.root = from.root
	c := from.clock.Load()
	for cur := fs.clock.Load(); c > cur && !fs.clock.CompareAndSwap(cur, c); cur = fs.clock.Load() {
	}
}
