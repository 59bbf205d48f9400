package chirp

import (
	"errors"
	"os"
	"strings"
	"testing"

	"identitybox/internal/acl"
	"identitybox/internal/identity"
	"identitybox/internal/kernel"
	"identitybox/internal/vfs"
)

// The server enforces the paper's access rule through internal/policy,
// the evaluator the identity box uses. These tests pin, over the wire
// and at either window, the cases where the server's own copy of the
// rule used to differ from the box's.

// runConformance plays internal/policy/testdata/conformance.txt (the
// format is described there): fs lines build the tree on fs, every
// other line goes to run and must meet its verdict, and at the end
// every ACL the script installed must still read as installed.
func runConformance(t *testing.T, fs *vfs.FS, run func(who identity.Principal, op string, args []string) error) {
	t.Helper()
	script, err := os.ReadFile("../policy/testdata/conformance.txt")
	if err != nil {
		t.Fatal(err)
	}
	installed := map[string]string{}
	for n, line := range strings.Split(string(script), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] == "#" {
			continue
		}
		if f[0] == "fs" {
			switch f[1] {
			case "dir":
				err = fs.Mkdir(f[2], 0o755, "owner")
			case "file":
				err = fs.WriteFile(f[2], []byte("data"), 0o644, "owner")
			case "link":
				err = fs.Symlink(f[3], f[2], "owner")
			case "hardlink":
				err = fs.Link(f[3], f[2])
			case "acl":
				text := strings.NewReplacer("=", " ", ",", "\n").Replace(f[3]) + "\n"
				installed[f[2]] = text
				err = fs.WriteFile(vfs.Join(f[2], acl.FileName), []byte(text), 0o644, "owner")
			}
			if err != nil {
				t.Fatalf("line %d: %v", n+1, err)
			}
			continue
		}
		arrow := len(f) - 2
		err := run(identity.Principal("unix:"+f[0]), f[1], f[2:arrow])
		switch verdict := f[arrow+1]; {
		case verdict == "allow" && err != nil:
			t.Errorf("line %d: %s = %v, want allowed", n+1, line, err)
		case verdict == "deny" && !errors.Is(err, vfs.ErrPermission):
			t.Errorf("line %d: %s = %v, want EPERM", n+1, line, err)
		}
	}
	for dir, text := range installed {
		if got, err := fs.ReadFile(vfs.Join(dir, acl.FileName)); err != nil || string(got) != text {
			t.Errorf("ACL of %s = %q, %v; want it as installed, %q", dir, got, err, text)
		}
	}
}

// The rule's script, as RPCs of sessions authenticated as each
// principal it names — played a second time on a fresh server with every
// read row through GetFile and every create row through PutFile, which
// must meet the verdicts of the opens they make the checks of.
func TestWireConformance(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		for _, pass := range []string{"open", "whole-file"} {
			t.Run(pass, func(t *testing.T) {
				srv, k, _ := testServer(t)
				clients := map[identity.Principal]*Client{}
				runConformance(t, k.FS(), func(who identity.Principal, op string, a []string) error {
					cl := clients[who]
					if cl == nil {
						cl = unixClient(t, srv, strings.TrimPrefix(who.String(), "unix:"), win)
						clients[who] = cl
					}
					if pass == "whole-file" {
						if handled, err := wholeFileOp(cl, k.FS(), op, a); handled {
							return err
						}
					}
					return wireOp(cl, op, a)
				})
			})
		}
	})
}

// wholeFileOp plays a read row through GetFile and a create row through
// PutFile. PutFile writes back the bytes the file already holds — none
// for a new file, as a create's open leaves it — so later rows see the
// tree the open would have left.
func wholeFileOp(cl *Client, fs *vfs.FS, op string, a []string) (handled bool, err error) {
	switch op {
	case "read":
		_, err = cl.GetFile(a[0])
		return true, err
	case "create":
		data, _ := fs.ReadFile(a[0])
		return true, cl.PutFile(a[0], data, 0o644)
	}
	return false, nil
}

func wireOp(cl *Client, op string, a []string) error {
	open := func(flags int) error {
		fd, err := cl.Open(a[0], flags, 0o644)
		if err == nil {
			err = cl.CloseFD(fd)
		}
		return err
	}
	var err error
	switch op {
	case "stat":
		_, err = cl.Stat(a[0])
	case "readlink":
		_, err = cl.Readlink(a[0])
	case "getdir":
		_, err = cl.ReadDir(a[0])
	case "getacl":
		_, err = cl.GetACL(a[0])
	case "setacl":
		err = cl.SetACL(a[0], "unix:admin rwlax\n"+cl.Identity().String()+" rwlax\n")
	case "read":
		err = open(kernel.ORdonly)
	case "write":
		err = open(kernel.OWronly)
	case "create":
		err = open(kernel.OWronly | kernel.OCreat)
	case "truncate":
		err = cl.Truncate(a[0], 0)
	case "unlink":
		err = cl.Unlink(a[0])
	case "rmdir":
		err = cl.Rmdir(a[0])
	case "symlink":
		err = cl.Symlink(a[0], a[1])
	case "rename":
		err = cl.Rename(a[0], a[1])
	case "link":
		err = cl.Link(a[0], a[1])
	case "mkdir":
		err = cl.Mkdir(a[0], 0o755)
	default:
		err = errors.New("unknown operation " + op)
	}
	return err
}

// sharedFixture starts a server where unix:bob holds the given rights on
// /shared, next to unix:admin's rwlax, and returns the ACL text installed.
func sharedFixture(t *testing.T, win int, bobRights string) (k *kernel.Kernel, admin, bob *Client, installed string) {
	t.Helper()
	srv, k, _ := testServer(t)
	admin, bob = unixClient(t, srv, "admin", win), unixClient(t, srv, "bob", win)
	installed = aclAdminOnly + "unix:bob " + bobRights + "\n"
	if err := admin.Mkdir("/shared", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := admin.SetACL("/shared", installed); err != nil {
		t.Fatal(err)
	}
	return k, admin, bob, installed
}

// Holding w is not holding a: every route by which a client could edit
// a directory's ACL file without the Admin right is refused, whatever
// name the route goes by, and the ACL stays as its administrator left it.
func TestACLFileNeedsAdminOverTheWire(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		_, admin, bob, installed := sharedFixture(t, win, "rwl")
		const aclPath = "/shared/" + acl.FileName
		if err := bob.PutFile("/shared/other", []byte("unix:bob rwlax\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		// bob may make links (that is only w), so he builds his own routes.
		for link, target := range map[string]string{
			"/shared/rel": acl.FileName,
			"/shared/abs": aclPath,
			"/shared/two": "rel",
		} {
			if err := bob.Symlink(target, link); err != nil {
				t.Fatalf("symlink %s: %v", link, err)
			}
		}
		routes := map[string]func() error{
			"setacl":                                 func() error { return bob.SetACL("/shared", "unix:bob rwlax\n") },
			"putfile":                                func() error { return bob.PutFile(aclPath, []byte("unix:bob rwlax\n"), 0o644) },
			"open for write through a relative link": func() error { _, err := bob.Open("/shared/rel", kernel.OWronly, 0); return err },
			"open for write through an absolute link": func() error { _, err := bob.Open("/shared/abs", kernel.OWronly, 0); return err },
			"open for write through two links":        func() error { _, err := bob.Open("/shared/two", kernel.ORdwr, 0); return err },
			"truncate":                                func() error { return bob.Truncate(aclPath, 0) },
			"truncate through a link":                 func() error { return bob.Truncate("/shared/two", 0) },
			"rename onto it":                          func() error { return bob.Rename("/shared/other", aclPath) },
			"rename it away":                          func() error { return bob.Rename(aclPath, "/shared/old") },
			"unlink":                                  func() error { return bob.Unlink(aclPath) },
		}
		for name, try := range routes {
			if err := try(); !errors.Is(err, vfs.ErrPermission) {
				t.Errorf("%s with rwl = %v, want EPERM", name, err)
			}
		}
		if got, err := admin.GetACL("/shared"); err != nil || got != installed {
			t.Errorf("getacl afterwards = %q, %v; want it as installed, %q", got, err, installed)
		}
		if err := bob.SetACL("/shared", "unix:bob rwlax\n"); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("setacl after the attempts = %v, want EPERM", err)
		}
	})
}

// unlink and rename act on a symlink, not through it, so the link's own
// directory decides: a reader of /pub cannot remove or move the
// administrator's link out of it on the strength of rights held where it
// points, and a writer of /work can remove a link of his own that points
// somewhere he cannot write. Calls that go through the link still follow.
func TestUnlinkRenameJudgeTheLinkNotItsTarget(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, _, _ := testServer(t)
		admin, bob := unixClient(t, srv, "admin", win), unixClient(t, srv, "bob", win)
		for dir, rights := range map[string]string{"/pub": "rl", "/work": "rwlax"} {
			if err := admin.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := admin.SetACL(dir, aclAdminOnly+"unix:bob "+rights+"\n"); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range []string{"/work/build", "/pub/new"} {
			if err := admin.PutFile(f, []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := admin.Symlink("/work/build", "/pub/latest"); err != nil {
			t.Fatal(err)
		}
		if err := bob.Symlink("/pub/new", "/work/l"); err != nil {
			t.Fatal(err)
		}
		if err := bob.Unlink("/pub/latest"); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("unlink /pub/latest with rl on /pub = %v, want EPERM", err)
		}
		if err := bob.Rename("/pub/latest", "/work/x"); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("rename /pub/latest away with rl on /pub = %v, want EPERM", err)
		}
		if target, err := admin.Readlink("/pub/latest"); err != nil || target != "/work/build" {
			t.Errorf("/pub/latest afterwards = %q, %v; want it still -> /work/build", target, err)
		}
		// Through the link the target's directory decides, as before.
		if _, err := bob.Stat("/pub/latest"); err != nil {
			t.Errorf("stat through /pub/latest = %v", err)
		}
		if err := bob.Truncate("/work/l", 0); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("truncate through /work/l -> /pub/new = %v, want EPERM", err)
		}
		if _, err := bob.Open("/work/l", kernel.OWronly, 0); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("open for write through /work/l -> /pub/new = %v, want EPERM", err)
		}
		if err := bob.Unlink("/work/l"); err != nil {
			t.Errorf("unlink own /work/l -> /pub/new = %v, want allowed", err)
		}
	})
}

// A hard link to an ACL file would be a name through which plain w
// edits it, so making one takes a on the ACL's directory. The
// administrator's own use — two directories sharing one ACL inode —
// keeps working and opens no route: both names are still ACL files.
func TestHardLinkToACLFileNeedsAdmin(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		k, admin, bob, installed := sharedFixture(t, win, "rwl")
		const aclPath = "/shared/" + acl.FileName
		for _, newName := range []string{"/shared/y", "/tmp/y"} {
			if err := bob.Link(aclPath, newName); !errors.Is(err, vfs.ErrPermission) {
				t.Errorf("link %s %s with rwl = %v, want EPERM", aclPath, newName, err)
			}
		}
		if err := admin.Mkdir("/twin", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := admin.Unlink("/twin/" + acl.FileName); err != nil {
			t.Fatal(err)
		}
		if err := admin.Link(aclPath, "/twin/"+acl.FileName); err != nil {
			t.Fatalf("administrator sharing one ACL between two directories: %v", err)
		}
		if got, err := bob.GetACL("/twin"); err != nil || got != installed {
			t.Fatalf("getacl /twin = %q, %v; want /shared's ACL", got, err)
		}
		for name, try := range map[string]func() error{
			"putfile":  func() error { return bob.PutFile("/twin/"+acl.FileName, []byte("unix:bob rwlax\n"), 0o644) },
			"truncate": func() error { return bob.Truncate("/twin/"+acl.FileName, 0) },
			"link":     func() error { return bob.Link("/twin/"+acl.FileName, "/twin/y") },
		} {
			if err := try(); !errors.Is(err, vfs.ErrPermission) {
				t.Errorf("%s through the administrator's link = %v, want EPERM", name, err)
			}
		}
		if got, err := k.FS().ReadFile(aclPath); err != nil || string(got) != installed {
			t.Errorf("%s afterwards = %q, %v; want it as installed", aclPath, got, err)
		}
	})
}
