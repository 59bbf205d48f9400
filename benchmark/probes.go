package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/admission"
	"identitybox/internal/auth"
	"identitybox/internal/chirp"
	"identitybox/internal/core"
	"identitybox/internal/durable"
	"identitybox/internal/identity"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// Probes are fixed-count single-goroutine loops that time direct calls
// into one layer's exported functions. They say what a layer costs on
// its own, so a per-request number can be read as "so many of these".

// timeEach runs fn n times and returns the median of the individual
// durations in nanoseconds: for calls long enough that two clock reads
// do not matter.
func timeEach(n int, fn func() error) (float64, error) {
	ns := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ns = append(ns, int64(time.Since(t0)))
	}
	return float64(percentile(sortedCopy(ns), 0.5)), nil
}

// timeBatch times fn in batches of per calls and returns the median
// batch's mean nanoseconds per call: for calls too short to time singly.
func timeBatch(batches, per int, fn func()) float64 {
	means := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		means = append(means, float64(time.Since(t0))/float64(per))
	}
	return median(means)
}

// runProbes measures every (P) metric. It runs after the passes and the
// oracle, because the replica probe writes to the live tree.
func (r *run) runProbes(out map[string]float64) error {
	cl, cfg := r.cluster, r.cluster.cfg

	// chirp / auth: the wire engine's floor and a session's price.
	ns, err := timeEach(2000, func() error { _, err := r.sess.bench[0].Whoami(); return err })
	if err != nil {
		return err
	}
	out["chirp.rtt_floor_us"] = ns / 1e3
	addr := cl.primary.srv.Addr()
	ns, err = timeEach(30, func() error {
		c, err := chirp.DialOpts(addr, []auth.Authenticator{&auth.UnixClient{User: benchUser(0)}},
			chirp.ClientOptions{DeadlineBudget: cfg.DeadlineBudget})
		if err != nil {
			return err
		}
		c.Close() // nothing was written: a farewell that loses the race with the server's own close is no failure
		return nil
	})
	if err != nil {
		return err
	}
	out["auth.dial_us"] = ns / 1e3

	// admission: one uncontended pass through a controller configured
	// like the server's.
	adm := admission.New(admission.Options{MaxQueue: cfg.AdmitQueue, ExecSlots: cfg.ExecSlots, Metrics: obs.NewRegistry()})
	out["admission.admit_done_ns"] = timeBatch(20, 5000, func() {
		tk, err := adm.Admit("unix:bench0", admission.Normal, 0, time.Time{})
		if err == nil {
			_ = tk.Acquire()
			tk.Done()
		}
	})

	// acl: parse and evaluate a home's ACL and a community's, the bench
	// principal matching last.
	me := identity.New("unix", benchUser(cfg.Conns-1))
	for name, text := range map[string]string{"e2": privateACL(cfg.Conns - 1), "e64": r.world.sharedACL(0)} {
		text := text
		parsed, err := acl.Parse(text)
		if err != nil {
			return err
		}
		out["acl.parse_"+name+"_ns"] = timeBatch(20, 200, func() { _, _ = acl.Parse(text) })
		out["acl.allows_"+name+"_ns"] = timeBatch(20, 2000, func() { _ = parsed.Allows(me, acl.List) })
	}

	// vfs: the in-memory tree on its own, unjournaled.
	fs := vfs.New(cfg.Owner)
	if err := fs.MkdirAll("/probe/d", 0o755, cfg.Owner); err != nil {
		return err
	}
	page := make([]byte, 4096)
	for j := 0; j < 16; j++ {
		if err := fs.WriteFile(fmt.Sprintf("/probe/d/f%02d", j), page[:1024], 0o644, cfg.Owner); err != nil {
			return err
		}
	}
	out["vfs.stat_ns"] = timeBatch(20, 5000, func() { _, _ = fs.Stat("/probe/d/f07") })
	out["vfs.readat_1k_ns"] = timeBatch(20, 5000, func() { _, _ = fs.ReadAt("/probe/d/f07", page[:1024], 0) })
	out["vfs.readdir_16_ns"] = timeBatch(20, 2000, func() { _, _ = fs.ReadDir("/probe/d") })
	out["vfs.writefile_4k_ns"] = timeBatch(20, 2000, func() { _ = fs.WriteFile("/probe/d/w", page, 0o644, cfg.Owner) })
	ns, err = timeEach(5, func() error { return cl.primary.store.FS().Save(io.Discard) })
	if err != nil {
		return err
	}
	out["vfs.save_ms"] = ns / 1e6

	// durable: one writer, one 4 KiB write, one barrier, no follower.
	dir := filepath.Join(cl.dir, "probe-store")
	defer os.RemoveAll(dir)
	st, err := durable.Open(dir, durable.Options{Owner: cfg.Owner, SyncEveryN: cfg.Fsync, Shards: cfg.WALShards})
	if err != nil {
		return err
	}
	ns, err = timeEach(200, func() error {
		if err := st.FS().WriteFile("/probe", page, 0o644, cfg.Owner); err != nil {
			return err
		}
		return st.Barrier()
	})
	st.Close()
	if err != nil {
		return err
	}
	out["durable.write_barrier_us"] = ns / 1e3

	// replica: the same write on the live primary, acknowledged by the
	// follower (what a mutating reply waits for).
	pfs := cl.primary.store.FS()
	ns, err = timeEach(200, func() error {
		if err := pfs.WriteFile("/.probe", page, 0o644, cfg.Owner); err != nil {
			return err
		}
		return cl.primary.node.Barrier()
	})
	if err != nil {
		return err
	}
	out["replica.write_acked_us"] = ns / 1e3
	out["replica.semi_sync_cost_us"] = out["replica.write_acked_us"] - out["durable.write_barrier_us"]

	// core / kernel: build an identity box and run a no-op inside it.
	k := kernel.New(vfs.New(cfg.Owner), vclock.Default())
	ns, err = timeEach(200, func() error {
		box, err := core.New(k, cfg.Owner, me, core.Options{HomeBase: "/.boxhomes", ShadowDir: "/.boxshadow"})
		if err != nil {
			return err
		}
		if st := box.Run(func(*kernel.Proc, []string) int { return 0 }); st.Code != 0 {
			return fmt.Errorf("no-op exited %d", st.Code)
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["core.box_exec_us"] = ns / 1e3
	return nil
}

// fsType names the filesystem a directory is on, from /proc/mounts
// (longest mount-point prefix wins).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
