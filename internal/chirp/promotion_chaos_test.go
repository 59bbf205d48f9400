package chirp

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"identitybox/internal/auth"
	"identitybox/internal/core"
	"identitybox/internal/kernel"
	"identitybox/internal/replica"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// chaosSeed reads the chaos matrix's RNG seed from CHIRP_CHAOS_SEED
// (default 1) and logs it so a failing run can be replayed exactly.
func chaosSeed(t *testing.T) int64 {
	seed := int64(1)
	if s := os.Getenv("CHIRP_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHIRP_CHAOS_SEED=%q: %v", s, err)
		}
		seed = v
	}
	t.Logf("chaos seed %d (override with CHIRP_CHAOS_SEED)", seed)
	return seed
}

// fastChaosOpts surfaces failures immediately instead of retrying into
// a dead primary; the client it is given to runs on a fake clock, so its
// one backoff takes no time.
func fastChaosOpts() ClientOptions {
	return ClientOptions{MaxRetries: 1, BreakerThreshold: 1000}
}

// replWorkflow runs the Figure 3 workflow one acked step at a time and
// reports how many steps were acknowledged before the first failure.
// Every step tolerates its own effects already existing, so the same
// call (with the same token) is the client's retry after a failover.
func replWorkflow(cl *Client, token string) (int, error) {
	steps := []func() error{
		func() error {
			err := cl.Mkdir("/work", 0o755)
			if errors.Is(err, vfs.ErrExist) {
				return nil
			}
			return err
		},
		func() error { return cl.PutFile("/work/sim.exe", kernel.ExecutableBytes("sim"), 0o755) },
		func() error { return cl.PutFile("/work/input.dat", []byte("signal data"), 0o644) },
		func() error {
			res, err := cl.ExecToken(token, "/work", "/work/sim.exe")
			if err != nil {
				return err
			}
			if res.Code != 0 {
				return fmt.Errorf("sim exited %d", res.Code)
			}
			return nil
		},
		func() error {
			out, err := cl.GetFile("/work/out.dat")
			if err != nil {
				return err
			}
			if string(out) != "SIGNAL DATA" {
				return fmt.Errorf("out.dat = %q", out)
			}
			return nil
		},
	}
	for i, step := range steps {
		if err := step(); err != nil {
			return i, err
		}
	}
	return len(steps), nil
}

// leaseCatalog starts a catalog arbitrating replTTL leases.
func leaseCatalog(t *testing.T) *Catalog {
	t.Helper()
	cat := NewCatalog()
	cat.LeaseTTL = replTTL
	if err := cat.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	return cat
}

// TestPromotionChaosMatrix kills the primary at every commit-group
// boundary of the Figure 3 workflow and proves, for each boundary, that
// the promoted follower holds every acked mutation and that the
// client's tokened retry is exactly-once across the failover.
func TestPromotionChaosMatrix(t *testing.T) {
	seed := chaosSeed(t)

	// Discovery run: a clean workflow tells us how many commit groups it
	// ships, which is the kill matrix's size.
	var groups int64
	t.Run("discover", func(t *testing.T) {
		cat := leaseCatalog(t)
		primary := startReplMember(t, "vol", cat.Addr(), "")
		follower := startReplMember(t, "vol", cat.Addr(), primary.addr)
		pollUntil(t, 2*time.Second, "follower subscription", func() bool { return primary.pub.Subscribers() == 1 })
		// Count workflow groups only: setup ships its own (the primary's
		// epoch-adoption record), which are not kill boundaries.
		base := primary.shipped.Load()
		cl := adminClientOn(t, primary.srv, fastChaosOpts(), newFakeClock())
		if acked, err := replWorkflow(cl, NewRequestToken()); err != nil || acked != 5 {
			t.Fatalf("clean workflow acked %d/5 steps: %v", acked, err)
		}
		if follower.role() != replica.RoleFollower {
			t.Fatalf("follower role = %s", follower.role())
		}
		groups = primary.shipped.Load() - base
	})
	if groups == 0 {
		t.Fatal("discovery run shipped no commit groups")
	}
	t.Logf("clean workflow ships %d commit groups", groups)
	// The count is not quite fixed: one request's records now and then
	// land in two groups (this workflow ships 7 or 8), and every kill run
	// coalesces on its own schedule anyway. The matrix covers the larger
	// count, so it is the same matrix every time; a boundary a run never
	// reaches becomes a kill after the workflow, which the body allows for.
	const mostGroups = 8
	if groups < mostGroups {
		groups = mostGroups
	}

	kills := make([]int64, 0, groups)
	if testing.Short() {
		// A reduced matrix: first boundary, an early middle one, the last.
		kills = append(kills, 1)
		if groups > 2 {
			kills = append(kills, 2)
		}
		if groups > 1 {
			kills = append(kills, groups)
		}
	} else {
		for k := int64(1); k <= groups; k++ {
			kills = append(kills, k)
		}
	}

	for _, k := range kills {
		k := k
		t.Run(fmt.Sprintf("kill-after-group-%d", k), func(t *testing.T) {
			// The client keeps one call in flight or pipelines; the guarantees are the server's.
			bothWindows(t, func(t *testing.T, win int) {
				rng := rand.New(rand.NewSource(seed + k))
				cat := leaseCatalog(t)
				primary := startReplMember(t, "vol", cat.Addr(), "")
				follower := startReplMember(t, "vol", cat.Addr(), primary.addr)
				pollUntil(t, 2*time.Second, "follower subscription", func() bool { return primary.pub.Subscribers() == 1 })
				// Jitter the crash 0–2ms past the boundary so repeated runs
				// land in different spots of the post-commit window, then arm
				// it at the k-th workflow group (setup's own groups excluded).
				primary.killDelay.Store(int64(time.Duration(rng.Intn(2_000_001))))
				primary.armKill(k)

				token := NewRequestToken()
				opts := fastChaosOpts()
				opts.Window = win
				cl := adminClientOn(t, primary.srv, opts, newFakeClock())
				acked, err := replWorkflow(cl, token)
				if err != nil {
					t.Logf("workflow lost the primary at step %d: %v", acked, err)
				}
				// The workflow can outrun a late boundary; the matrix still
				// wants a dead primary. kill is idempotent.
				primary.kill()
				pollUntil(t, 10*replTTL, "follower promotion", func() bool { return follower.role() == replica.RolePrimary })

				// Every mutation the dead primary acked must already be on the
				// promoted follower, before any retry runs.
				fcl := adminClient(t, follower.srv, ClientOptions{Window: win})
				ackedSteps := []struct {
					path string
					want string // "" = existence only
				}{
					{"/work", ""},
					{"/work/sim.exe", ""},
					{"/work/input.dat", "signal data"},
					{"/work/out.dat", "SIGNAL DATA"},
				}
				for i, c := range ackedSteps {
					if acked < i+1 {
						break
					}
					if c.want == "" {
						if _, err := fcl.Stat(c.path); err != nil {
							t.Fatalf("acked step %d lost across failover: %s: %v", i, c.path, err)
						}
					} else if data, err := fcl.GetFile(c.path); err != nil || string(data) != c.want {
						t.Fatalf("acked step %d lost across failover: %s = %q, %v", i, c.path, data, err)
					}
				}
				execAcked := acked >= 4

				// The client retries the whole workflow against the promoted
				// follower with the same request token.
				if acked2, err := replWorkflow(fcl, token); err != nil || acked2 != 5 {
					t.Fatalf("retry on the promoted follower died at step %d: %v", acked2, err)
				}
				if execAcked && follower.execs.Load() != 0 {
					t.Fatalf("acked exec ran again on the promoted follower (%d times)", follower.execs.Load())
				}
				pExecs, fExecs := primary.execs.Load(), follower.execs.Load()
				if pExecs+fExecs < 1 {
					t.Fatal("sim never executed anywhere")
				}
				t.Logf("acked %d/5 steps before the kill; execs primary=%d follower=%d", acked, pExecs, fExecs)
			})
		})
	}
}

// TestFailoverDriverDegradedClears: with no background loop, a boxed
// application's writes stop returning ErrDegraded as soon as the lease
// moves — the write path's role probe re-points the driver at the
// promoted follower without any manual intervention.
func TestFailoverDriverDegradedClears(t *testing.T) {
	cat := leaseCatalog(t)
	primary := startReplMember(t, "vol", cat.Addr(), "")
	follower := startReplMember(t, "vol", cat.Addr(), primary.addr)
	pollUntil(t, 2*time.Second, "follower subscription", func() bool { return primary.pub.Subscribers() == 1 })

	// Each client's fake clock moves only by its own backoff sleeps, so
	// the dead primary's open breaker stays open.
	fast := ClientOptions{MaxRetries: 1, BreakerThreshold: 1}
	c1 := adminClientOn(t, primary.srv, fast, newFakeClock())
	c2 := adminClientOn(t, follower.srv, fast, newFakeClock())
	fd := NewFailoverDriver(
		[]*Driver{NewDriver(c1, vclock.Default()), NewDriver(c2, vclock.Default())}, nil)

	clientFS := vfs.New("dthain")
	clientK := kernel.New(clientFS, vclock.Default())
	clientFS.MkdirAll("/tmp", 0o777, "dthain")
	box, err := core.New(clientK, "dthain", "unix:admin", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	box.Mount("/vol", fd)

	write := func(path string) error {
		var werr error
		box.Run(func(p *kernel.Proc, _ []string) int {
			werr = fd.WriteFileSmall(p, path, []byte("payload"), 0o644)
			return 0
		})
		return werr
	}
	if err := write("/before.txt"); err != nil {
		t.Fatalf("write before the kill: %v", err)
	}

	killed := time.Now()
	primary.kill()
	var cleared time.Duration
	deadline := killed.Add(20 * replTTL)
	for {
		err := write("/after.txt")
		if err == nil {
			cleared = time.Since(killed)
			break
		}
		if !errors.Is(err, ErrDegraded) && !errors.Is(err, ErrNotPrimary) {
			t.Fatalf("write failed with %v, want ErrDegraded/ErrNotPrimary while failing over", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("writes still degraded %v after the kill: %v", time.Since(killed), err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("ErrDegraded cleared %v after the primary kill (lease ttl %v; ≈108ms with the old background loops)", cleared, replTTL)
	if follower.role() != replica.RolePrimary {
		t.Fatalf("write cleared but the follower is %s", follower.role())
	}
	// The write landed on the promoted member.
	fcl := adminClient(t, follower.srv, ClientOptions{})
	if data, err := fcl.GetFile("/after.txt"); err != nil || string(data) != "payload" {
		t.Fatalf("cleared write missing on the new primary: %q, %v", data, err)
	}
}

// TestMountAllReplicatedV2Pipelining: MountAll over a replicated
// catalog builds a failover mount whose members negotiated protocol v2;
// concurrent reads pipeline over the shared sessions, writes through
// the mount reach the primary and replicate, and reads keep working
// through the mount after the primary dies.
func TestMountAllReplicatedV2Pipelining(t *testing.T) {
	cat := leaseCatalog(t)
	primary := startReplMember(t, "vol", cat.Addr(), "")
	startReplMember(t, "vol", cat.Addr(), primary.addr)
	pollUntil(t, 2*time.Second, "follower subscription", func() bool { return primary.pub.Subscribers() == 1 })
	pollUntil(t, 2*time.Second, "both heartbeats", func() bool { return len(cat.Entries()) == 2 })

	clientFS := vfs.New("dthain")
	clientK := kernel.New(clientFS, vclock.Default())
	clientFS.MkdirAll("/tmp", 0o777, "dthain")
	box, err := core.New(clientK, "dthain", "unix:admin", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clients, err := MountAll(box, cat.Addr(), []auth.Authenticator{&auth.UnixClient{User: "admin"}}, vclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(clients)
	if len(clients) != 2 {
		t.Fatalf("mounted %d clients, want 2", len(clients))
	}
	for _, cl := range clients {
		if ws := cl.WindowStats(); ws.Window != DefaultWindow {
			t.Fatalf("%s negotiated window %d, want %d", cl.Addr(), ws.Window, DefaultWindow)
		}
	}

	// A write through the replica-set mount follows the primary role.
	st := box.Run(func(p *kernel.Proc, _ []string) int {
		if err := p.WriteFile("/chirp/vol/shared.txt", []byte("replicated"), 0o644); err != nil {
			t.Errorf("write through the failover mount: %v", err)
			return 1
		}
		return 0
	})
	if st.Code != 0 {
		t.Fatalf("boxed write exit = %d", st.Code)
	}

	// Wait until both members applied it, then hammer both sessions with
	// pipelined concurrent reads — the v2 mux interleaves them on the
	// two shared connections.
	var horizon uint64
	for _, cl := range clients {
		if s, err := cl.Stats(); err == nil && s.AppliedLSN > horizon {
			horizon = s.AppliedLSN
		}
	}
	for _, cl := range clients {
		if _, err := cl.WaitLSN(horizon, 2*time.Second); err != nil {
			t.Fatalf("%s never caught up to lsn %d: %v", cl.Addr(), horizon, err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 4; i++ {
		for _, cl := range clients {
			cl := cl
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 4; j++ {
					data, err := cl.GetFile("/shared.txt")
					if err != nil {
						errs <- fmt.Errorf("%s: %w", cl.Addr(), err)
						return
					}
					if string(data) != "replicated" {
						errs <- fmt.Errorf("%s read %q", cl.Addr(), data)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Reads through the mount survive the primary's death.
	primary.kill()
	st = box.Run(func(p *kernel.Proc, _ []string) int {
		data, err := p.ReadFile("/chirp/vol/shared.txt")
		if err != nil || string(data) != "replicated" {
			t.Errorf("read through the mount after the primary died = %q, %v", data, err)
			return 1
		}
		return 0
	})
	if st.Code != 0 {
		t.Fatalf("post-kill boxed read exit = %d", st.Code)
	}
}
