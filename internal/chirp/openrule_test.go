package chirp

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"identitybox/internal/core"
	"identitybox/internal/identity"
	"identitybox/internal/kernel"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// openVerdict is what one open decides: its error's name, or the rights
// of the descriptor it made ("fd rw", "fd r-", "fd -w").
func openVerdict(err error, pread, pwrite func() error) string {
	switch {
	case errors.Is(err, vfs.ErrPermission):
		return "EPERM"
	case errors.Is(err, vfs.ErrInvalid):
		return "EINVAL"
	case err != nil:
		return err.Error()
	}
	right := func(err error, c string) string {
		switch {
		case err == nil, errors.Is(err, io.EOF):
			return c
		case errors.Is(err, kernel.ErrBadFD):
			return "-"
		}
		return "(" + err.Error() + ")"
	}
	return "fd " + right(pread(), "r") + right(pwrite(), "w")
}

// TestOpenRuleOneVerdict: vfs.OpenAccess reads an open's flags once and
// every enforcement point derives from it. An open wants r for a
// readable access mode, w for a writable one and w for O_CREAT; access
// mode 3 is EINVAL before any check; a descriptor reads and writes only
// as its access mode says (EBADF otherwise). Principals with no entry
// at all, and holding none of r and w, exactly r, exactly w and rw on
// /vault-*/s get one verdict column for modes 0-3 × {plain, O_CREAT,
// O_TRUNC} at the four enforcement points: the native kernel (Unix bits,
// account bob on a file it does not own, its other bits the principal's
// rights), an identity box over the kernel's file system, an identity
// box over a Chirp mount, and a Chirp session (the ACL, which grants
// unix:bob the principal's rights). Every entry also grants l, which
// opens do not want but a box over Chirp needs to fetch the ACL it
// checks (getacl takes l); with no entry, getacl refuses it too. Only a
// granted writable O_TRUNC open changes the file.
func TestOpenRuleOneVerdict(t *testing.T) {
	const secret = "the vault's bytes"
	srv, k, _ := testServer(t)
	admin := unixClient(t, srv, "admin", ProtocolV2)
	principals := []struct {
		name, rights string
		mode         uint32
		acl          string
	}{
		{"noentry", "", 0o600, "unix:admin rwlax\n"},
		{"none", "", 0o600, "unix:admin rwlax\nunix:bob l\n"},
		{"r", "r", 0o604, "unix:admin rwlax\nunix:bob rl\n"},
		{"w", "w", 0o602, "unix:admin rwlax\nunix:bob wl\n"},
		{"rw", "rw", 0o606, "unix:admin rwlax\nunix:bob rwl\n"},
	}
	for _, pr := range principals {
		dir := "/vault-" + pr.name
		for _, step := range []error{
			admin.Mkdir(dir, 0o755),
			admin.SetACL(dir, pr.acl),
			admin.PutFile(dir+"/s", []byte(secret), pr.mode),
		} {
			if step != nil {
				t.Fatal(step)
			}
		}
	}
	box, err := core.New(k, "chirpowner", identity.Principal("unix:bob"), core.Options{
		HomeBase: "/.boxhomes", ShadowDir: "/.boxshadow",
	})
	if err != nil {
		t.Fatal(err)
	}
	clientFS := vfs.New("bob")
	remote, err := core.New(kernel.New(clientFS, vclock.Default()), "bob", identity.Principal("unix:bob"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mnt := "/chirp/" + srv.Addr()
	remote.Mount(mnt, NewDriver(unixClient(t, srv, "bob", ProtocolV2), vclock.Default()))
	bob := unixClient(t, srv, "bob", ProtocolV2)

	procVerdict := func(p *kernel.Proc, path string, flags int) string {
		fd, err := p.Open(path, flags, 0o644)
		v := openVerdict(err,
			func() error { _, err := p.Pread(fd, make([]byte, 1), 0); return err },
			func() error { _, err := p.Pwrite(fd, []byte(secret[:1]), 0); return err })
		if err == nil {
			p.Close(fd)
		}
		return v
	}
	points := []struct {
		name string
		open func(path string, flags int) string
	}{
		{"kernel", func(path string, flags int) (v string) {
			k.Run(kernel.ProcSpec{Account: "bob"}, func(p *kernel.Proc, _ []string) int {
				v = procVerdict(p, path, flags)
				return 0
			})
			return v
		}},
		{"box", func(path string, flags int) (v string) {
			box.Run(func(p *kernel.Proc, _ []string) int {
				v = procVerdict(p, path, flags)
				return 0
			})
			return v
		}},
		{"box-over-chirp", func(path string, flags int) (v string) {
			remote.Run(func(p *kernel.Proc, _ []string) int {
				v = procVerdict(p, mnt+path, flags)
				return 0
			})
			return v
		}},
		{"chirp", func(path string, flags int) string {
			fd, err := bob.Open(path, flags, 0o644)
			v := openVerdict(err,
				func() error { _, err := bob.Pread(fd, make([]byte, 1), 0); return err },
				func() error { _, err := bob.Pwrite(fd, []byte(secret[:1]), 0); return err })
			if err == nil {
				bob.CloseFD(fd)
			}
			return v
		}},
	}
	bit := func(ok bool, c string) string {
		if ok {
			return c
		}
		return "-"
	}
	for mode := 0; mode <= 3; mode++ {
		for _, extra := range []struct {
			name string
			flag int
		}{{"plain", 0}, {"creat", kernel.OCreat}, {"trunc", kernel.OTrunc}} {
			flags := mode | extra.flag
			reads, writes := mode != kernel.OWronly, mode != kernel.ORdonly
			for _, pt := range points {
				t.Run(fmt.Sprintf("mode%d/%s/%s", mode, extra.name, pt.name), func(t *testing.T) {
					for _, pr := range principals {
						has := func(r string) bool { return pr.rights == r || pr.rights == "rw" }
						want, after := "fd "+bit(reads, "r")+bit(writes, "w"), secret
						switch {
						case mode == 3:
							want = "EINVAL"
						case reads && !has("r"), (writes || extra.flag == kernel.OCreat) && !has("w"):
							want = "EPERM"
						case writes && extra.flag == kernel.OTrunc:
							// The open empties the file; the probe writes its first byte back.
							after = secret[:1]
						}
						path := "/vault-" + pr.name + "/s"
						if got := pt.open(path, flags); got != want {
							t.Errorf("bob=%s: open with flags %#o = %s, want %s", pr.name, flags, got, want)
						}
						if data, err := k.FS().ReadFile(path); err != nil || string(data) != after {
							t.Errorf("bob=%s: %s after the open = %q, %v; want %q", pr.name, path, data, err, after)
						}
						if err := k.FS().WriteFile(path, []byte(secret), pr.mode, "chirpowner"); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// TestFollowerServesReadOnlyTruncOpen: O_RDONLY|O_TRUNC truncates
// nothing (vfs.OpenAccess gives it no MayMutate), so a follower serves
// it like any read-only open and the file is unchanged. A writable
// open, with O_TRUNC or without, is still the primary's alone.
func TestFollowerServesReadOnlyTruncOpen(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		primary := startReplMember(t, "vol", "", "")
		follower := startReplMember(t, "vol", "", primary.addr)
		pollUntil(t, 2*time.Second, "follower subscription", func() bool { return primary.pub.Subscribers() == 1 })
		admin := unixClient(t, primary.srv, "admin", win)
		reader := unixClient(t, follower.srv, "admin", win)
		if err := admin.Mkdir("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := admin.PutFile("/d/f", []byte("payload"), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := admin.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reader.WaitLSN(st.AppliedLSN, 2*time.Second); err != nil {
			t.Fatalf("waitlsn: %v", err)
		}
		fd, err := reader.Open("/d/f", kernel.ORdonly|kernel.OTrunc, 0)
		if err != nil {
			t.Fatalf("O_RDONLY|O_TRUNC open on the follower = %v, want it served", err)
		}
		buf := make([]byte, 16)
		n, err := reader.Pread(fd, buf, 0)
		if err != nil && !errors.Is(err, io.EOF) || string(buf[:n]) != "payload" {
			t.Errorf("pread after the open = %q, %v; want the file unchanged", buf[:n], err)
		}
		if err := reader.CloseFD(fd); err != nil {
			t.Fatal(err)
		}
		if data, err := admin.GetFile("/d/f"); err != nil || string(data) != "payload" {
			t.Errorf("primary's /d/f = %q, %v; want it unchanged", data, err)
		}
		for _, c := range []struct {
			name  string
			flags int
		}{
			{"O_WRONLY", kernel.OWronly},
			{"O_RDWR", kernel.ORdwr},
			{"O_WRONLY|O_TRUNC", kernel.OWronly | kernel.OTrunc},
		} {
			if _, err := reader.Open("/d/f", c.flags, 0); !errors.Is(err, ErrNotPrimary) {
				t.Errorf("%s open on the follower = %v, want ErrNotPrimary", c.name, err)
			}
		}
	})
}
