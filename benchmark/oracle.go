package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"identitybox/internal/durable"
	"identitybox/internal/vfs"
)

// waitConverged blocks until the follower has applied everything the
// primary has made durable, then requires the two trees to be equal.
func (cl *cluster) waitConverged() error {
	if err := cl.primary.store.Barrier(); err != nil {
		return fmt.Errorf("primary barrier: %w", err)
	}
	want := cl.primary.store.DurableLSN()
	if err := cl.follower.store.WaitApplied(want, 10*time.Second); err != nil {
		return fmt.Errorf("follower behind: %w", err)
	}
	if got := cl.follower.store.AppliedLSN(); got != want {
		return fmt.Errorf("follower applied lsn %d, primary durable lsn %d", got, want)
	}
	p, err := treeDigest(cl.primary.store.FS())
	if err != nil {
		return err
	}
	f, err := treeDigest(cl.follower.store.FS())
	if err != nil {
		return err
	}
	if p != f {
		return fmt.Errorf("tree digests differ: primary %016x, follower %016x", p, f)
	}
	return nil
}

// treeDigest hashes every path, type, mode, symlink target and file
// byte under the root, in sorted order. Inode numbers and timestamps
// are local to a store and left out.
func treeDigest(fs *vfs.FS) (uint64, error) {
	h := fnv.New64a()
	if err := digestDir(fs, "/", h); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}

func digestDir(fs *vfs.FS, dir string, h hash.Hash64) error {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		path := vfs.Join(dir, e.Name)
		st, err := fs.Lstat(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00%o\x00", path, st.Type, st.Mode)
		switch st.Type {
		case vfs.TypeDir:
			if err := digestDir(fs, path, h); err != nil {
				return err
			}
		case vfs.TypeSymlink:
			t, err := fs.Readlink(path)
			if err != nil {
				return err
			}
			io.WriteString(h, t)
		default:
			data, err := fs.ReadFile(path)
			if err != nil {
				return err
			}
			h.Write(data)
		}
	}
	return nil
}

// crashCopy writes into dst what the primary's state directory would
// hold after a power failure right now: every WAL segment cut back to
// the length its last completed fsync covered, everything else (the
// snapshot, published by its own fsync and rename) as it is. Killing a
// process would keep the page cache, so the benchmark discards the
// unflushed bytes itself.
func (cl *cluster) crashCopy(dst string) error {
	cl.compactMu.Lock()
	defer cl.compactMu.Unlock()
	synced := cl.primary.files.syncedLengths()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(cl.primary.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		src := filepath.Join(cl.primary.dir, e.Name())
		limit, tracked := synced[src]
		if err := copyPrefix(src, filepath.Join(dst, e.Name()), limit, tracked); err != nil {
			return err
		}
	}
	return nil
}

func copyPrefix(src, dst string, limit int64, limited bool) error {
	in, err := os.Open(src)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil // pruned since the listing
		}
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	var r io.Reader = in
	if limited {
		r = io.LimitReader(in, limit)
	}
	if _, err := io.Copy(out, r); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// reopen recovers a crash copy with the production store options and
// reports the store, what recovery did and how long it took.
func (cl *cluster) reopen(dir string) (*durable.Store, time.Duration, error) {
	t0 := time.Now()
	st, err := durable.Open(dir, durable.Options{
		Owner:      cl.cfg.Owner,
		SyncEveryN: cl.cfg.Fsync,
		Shards:     cl.cfg.WALShards,
	})
	return st, time.Since(t0), err
}

// lossReport is what the crash check missed. execOutputs of the lost
// are outputs of acknowledged execs (run.checkDurability says why they
// are told apart); the details carry the first few misses of each kind.
type lossReport struct {
	lost, execOutputs          int
	details, execOutputDetails []string
}

// ackedLost crash-copies the primary, recovers the copy and counts the
// acknowledged writes of the model that the recovered tree does not
// hold. The callers must be idle: with nothing in flight the model is
// exact.
func (cl *cluster) ackedLost(w *world, residue []jobResidue) (loss lossReport, err error) {
	dir := filepath.Join(cl.dir, "crash")
	defer os.RemoveAll(dir)
	if err := cl.crashCopy(dir); err != nil {
		return loss, err
	}
	st, _, err := cl.reopen(dir)
	if err != nil {
		return loss, fmt.Errorf("recovering the crash copy: %w", err)
	}
	defer st.Close()
	note := func(to *[]string, format string, args ...any) {
		loss.lost++
		if len(*to) < maxErrsKept {
			*to = append(*to, fmt.Sprintf(format, args...))
		}
	}
	miss := func(format string, args ...any) { note(&loss.details, format, args...) }
	missOutput := func(format string, args ...any) {
		loss.execOutputs++
		note(&loss.execOutputDetails, format, args...)
	}
	fs := st.FS()
	if w.uses(tgtWrite) {
		buf := make([]byte, w.geo.writeSize)
		for id := range w.slots {
			s := &w.slots[id]
			if s.unknown {
				continue
			}
			path := w.slotPath(id, s)
			fileContent(w.seed, contentSlot, id, s.version, buf)
			if data, err := fs.ReadFile(path); err != nil || !bytes.Equal(data, buf) {
				miss("slot %s version %d: %v", path, s.version, err)
			}
			if other := w.slotPath(id, &slot{dir: s.dir, alt: !s.alt}); fs.Exists(other) {
				miss("slot %s: renamed-away name %s still exists", path, other)
			}
		}
		for t := 0; t < w.geo.subtrees; t++ {
			ents, err := fs.ReadDir(subtreeDir(t))
			if err != nil {
				miss("subtree %s: %v", subtreeDir(t), err)
				continue
			}
			for _, e := range ents {
				if e.Name[0] == 'c' || e.Name[0] == 'd' {
					miss("%s/%s: unlinked name still exists", subtreeDir(t), e.Name)
				}
			}
		}
	}
	for i := range w.aclVer {
		var dir string
		if w.workload == "mixed_open" {
			dir = w.sharedDirs[i]
		} else if w.workload == "durable_write" {
			callers := w.geo.conns * w.geo.callers
			dir = fmt.Sprintf("%s/a%02d", subtreeDir(i/callers), i%callers)
		} else {
			break
		}
		if w.aclVer[i].unknown {
			continue
		}
		want := fmt.Sprintf("unix:v%d l\n", w.aclVer[i].version)
		if data, err := fs.ReadFile(dir + "/" + aclFileName); err != nil || !strings.Contains(string(data), want) {
			miss("acl %s version %d: %v", dir, w.aclVer[i].version, err)
		}
	}
	if w.workload == "mixed_open" {
		for id := range w.rslots {
			s := &w.rslots[id]
			if path := w.rslotPath(id, s); !s.unknown && !fs.Exists(path) {
				miss("rename slot %s missing", path)
			}
		}
	}
	if w.uses(tgtJob) {
		have := make(map[string]bool)
		for key := range st.DedupeEntries() {
			have[key[strings.IndexByte(key, 0)+1:]] = true
		}
		for _, tok := range w.tokens.tokens {
			if !have[tok] {
				miss("exec token %s not in the dedupe journal", tok)
			}
		}
		for _, r := range residue {
			out, err := fs.ReadFile(r.dir + "/out.dat")
			if err != nil || len(out) != len(r.in) {
				missOutput("job %s: out.dat: %d bytes, %v", r.dir, len(out), err)
				continue
			}
			for i, b := range r.in {
				if out[i] != b^0x5a {
					missOutput("job %s: out.dat differs at byte %d", r.dir, i)
					break
				}
			}
		}
		ents, err := fs.ReadDir("/work")
		if err != nil || len(ents) != len(residue)+1 {
			miss("/work holds %d entries, want %d job directories and the ACL: %v", len(ents), len(residue), err)
		}
	}
	return loss, nil
}

// jobResidue is a job left staged and executed at the end of a window,
// so the crash copy must hold its output.
type jobResidue struct {
	dir string
	in  []byte
}

// recoverStats is what the recovery test measured.
type recoverStats struct {
	ms       float64 // median durable.Open time of the crash copy
	replayed int
}

// recoverTest compacts the primary, applies exactly n more seeded
// mutations (the durable_write mix, n/len(callers) per caller), crashes,
// and times recovery of the copy. The compaction ticker must be stopped
// so the replayed record count depends only on the seed.
func (cl *cluster) recoverTest(w *world, callers []*caller, seed uint64, n int) (recoverStats, error) {
	var rs recoverStats
	if err := cl.primary.store.Compact(); err != nil {
		return rs, err
	}
	per := n / len(callers)
	tasks := make([]func() error, len(callers))
	for i := range callers {
		i := i
		g := newOpGen(seed^0x7265636f766572, w.workload, i, w.geo)
		tasks[i] = func() error {
			for k := 0; k < per; k++ {
				o := g.next()
				if err := w.do(callers[i], o); err != nil {
					return fmt.Errorf("recovery mutation %s: %w", o.kind, err)
				}
			}
			return nil
		}
	}
	if err := runTasks(tasks, len(tasks)); err != nil {
		return rs, err
	}
	dir := filepath.Join(cl.dir, "recover")
	defer os.RemoveAll(dir)
	if err := cl.crashCopy(dir); err != nil {
		return rs, err
	}
	var times []float64
	for i := 0; i < 3; i++ {
		st, d, err := cl.reopen(dir)
		if err != nil {
			return rs, err
		}
		if i == 0 {
			rs.replayed = st.Recovery().Replayed
		}
		if err := st.Close(); err != nil {
			return rs, err
		}
		times = append(times, float64(d)/1e6)
	}
	rs.ms = median(times)
	return rs, nil
}
