package policy_test

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"identitybox/internal/acl"
	"identitybox/internal/identity"
	"identitybox/internal/policy"
	"identitybox/internal/vfs"
)

// fakeSource is a Source over an in-memory tree where a directory is
// governed by its own ACL file or by none (the box's shape; the
// server's never-nil shape is a subset of it).
type fakeSource struct{ *vfs.FS }

func (s fakeSource) ACL(dir string) (*acl.ACL, error) {
	data, err := s.ReadFile(vfs.Join(dir, acl.FileName))
	if errors.Is(err, vfs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	a, err := acl.Parse(string(data))
	if err != nil {
		return &acl.ACL{}, nil
	}
	return a, nil
}

// model is the operation table in executable form: each operation as
// the checks it takes, then the operation itself on the tree so later
// script lines see its effect.
type model struct {
	src fakeSource
}

func (m model) run(who identity.Principal, op string, a []string) error {
	fs := m.src.FS
	check := func(path string, want acl.Rights, how policy.How) error {
		return policy.Check(m.src, who, path, want, how)
	}
	do := func(err error, act func() error) error {
		if err != nil {
			return err
		}
		return act()
	}
	open := func(want acl.Rights, create bool) error {
		return do(check(a[0], want, policy.Follow), func() error {
			if _, err := fs.Stat(a[0]); err != nil && create {
				_, err = fs.Create(a[0], 0o644, "owner")
				return err
			}
			_, err := fs.OpenHandle(a[0])
			return err
		})
	}
	switch op {
	case "stat":
		return do(check(a[0], acl.List, policy.Follow), func() error { _, err := fs.Stat(a[0]); return err })
	case "readlink":
		return do(check(a[0], acl.List, policy.NoFollow), func() error { _, err := fs.Readlink(a[0]); return err })
	case "getdir":
		return do(check(a[0], acl.List, policy.Dir), func() error { _, err := fs.ReadDir(a[0]); return err })
	case "getacl":
		return do(check(a[0], acl.List, policy.Dir), func() error { _, err := fs.ReadFile(vfs.Join(a[0], acl.FileName)); return err })
	case "setacl":
		return do(check(a[0], acl.Admin, policy.Dir), func() error {
			return fs.WriteFile(vfs.Join(a[0], acl.FileName), []byte(grantText(who)), 0o644, "owner")
		})
	case "read":
		return open(acl.Read, false)
	case "write":
		return open(acl.Write, false)
	case "create":
		return open(acl.Write, true)
	case "truncate":
		return do(check(a[0], acl.Write, policy.Follow), func() error { return fs.Truncate(a[0], 0) })
	case "unlink":
		return do(check(a[0], acl.Write, policy.NoFollow), func() error { return fs.Unlink(a[0]) })
	case "rmdir":
		return do(check(a[0], acl.Write, policy.NoFollow), func() error { return fs.Rmdir(a[0]) })
	case "symlink":
		return do(check(a[1], acl.Write, policy.NoFollow), func() error { return fs.Symlink(a[0], a[1], "owner") })
	case "rename":
		err := check(a[0], acl.Write, policy.NoFollow)
		if err == nil {
			err = check(a[1], acl.Write, policy.NoFollow)
		}
		return do(err, func() error { return fs.Rename(a[0], a[1]) })
	case "link":
		err := check(a[0], acl.Read, policy.LinkOld)
		if err == nil {
			err = check(a[1], acl.Write, policy.NoFollow)
		}
		return do(err, func() error { return fs.Link(a[0], a[1]) })
	case "mkdir":
		child, _, err := policy.Mkdir(m.src, who, a[0])
		return do(err, func() error {
			if err := fs.Mkdir(a[0], 0o755, "owner"); err != nil {
				return err
			}
			return fs.WriteFile(vfs.Join(a[0], acl.FileName), []byte(child.String()), 0o644, "owner")
		})
	}
	return fmt.Errorf("unknown operation %q", op)
}

// grantText is the ACL a script setacl installs.
func grantText(who identity.Principal) string {
	return "unix:admin rwlax\n" + who.String() + " rwlax\n"
}

// runConformance plays testdata/conformance.txt: fs lines build the tree
// on fs, every other line goes to run and must meet its verdict. At the
// end every ACL the script installed must still read as installed: no
// denied route edited one.
func runConformance(t *testing.T, fs *vfs.FS, run func(who identity.Principal, op string, args []string) error) {
	t.Helper()
	script, err := os.ReadFile("testdata/conformance.txt")
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

func TestPolicyConformance(t *testing.T) {
	fs := vfs.New("owner")
	runConformance(t, fs, model{fakeSource{fs}}.run)
}

// An 11-link chain stops after ten hops and is judged where it stopped:
// by the directory of the eleventh link, not of what that leads to.
func TestResolveStopsAfterTenHops(t *testing.T) {
	fs := vfs.New("owner")
	for _, d := range []string{"/open", "/priv"} {
		if err := fs.Mkdir(d, 0o755, "owner"); err != nil {
			t.Fatal(err)
		}
	}
	fs.WriteFile("/open/"+acl.FileName, []byte("unix:user rwlax\n"), 0o644, "owner")
	fs.WriteFile("/priv/"+acl.FileName, []byte("unix:admin rwlax\n"), 0o644, "owner")
	fs.WriteFile("/priv/secret", []byte("x"), 0o600, "owner")
	for i := 0; i < 10; i++ {
		fs.Symlink(fmt.Sprintf("c%d", i+1), fmt.Sprintf("/open/c%d", i), "owner")
	}
	fs.Symlink("/priv/secret", "/open/c10", "owner")
	src := fakeSource{fs}
	if got := policy.Resolve(src, "/open/c0"); got != "/open/c10" {
		t.Fatalf("Resolve over 11 links = %q, want the chase to stop at /open/c10", got)
	}
	if err := policy.Check(src, "unix:user", "/open/c0", acl.Read, policy.Follow); err != nil {
		t.Errorf("11-link chain judged past where the chase stopped: %v", err)
	}
	// One link fewer and the chase reaches the target's directory.
	if got := policy.Resolve(src, "/open/c1"); got != "/priv/secret" {
		t.Fatalf("Resolve over 10 links = %q, want /priv/secret", got)
	}
	if err := policy.Check(src, "unix:user", "/open/c1", acl.Read, policy.Follow); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("10-link chain to /priv/secret = %v, want EPERM", err)
	}
}

// Where no ACL governs, one Unix rule answers whichever call asks: the
// visitor is "nobody" — owner bits of what nobody owns, other bits of
// everything else — and an absent object is judged by its directory.
func TestUnixAsNobodyWhicheverCallAsks(t *testing.T) {
	fs := vfs.New("owner")
	fs.Mkdir("/own", 0o700, "nobody")
	fs.WriteFile("/own/f", []byte("x"), 0o600, "nobody")
	fs.Mkdir("/pub", 0o755, "owner")
	fs.WriteFile("/pub/f", []byte("x"), 0o644, "owner")
	fs.Mkdir("/tmp", 0o777, "owner")
	fs.Symlink("/pub/f", "/tmp/l", "owner")
	src := fakeSource{fs}
	for _, c := range []struct {
		path  string
		want  acl.Rights
		how   policy.How
		allow bool
	}{
		{"/own", acl.List, policy.Dir, true},
		{"/own", acl.Admin, policy.Dir, true},
		{"/own/f", acl.Read, policy.Follow, true},
		{"/own/f", acl.Write, policy.NoFollow, true},
		{"/own/f", acl.Execute, policy.Follow, false},
		{"/own/new", acl.Write, policy.Follow, true},
		{"/pub", acl.List, policy.Dir, true},
		{"/pub", acl.Admin, policy.Dir, false},
		{"/pub/f", acl.Read, policy.Follow, true},
		{"/pub/f", acl.Write, policy.Follow, false},
		{"/pub/f", acl.Write, policy.NoFollow, false},
		{"/pub/new", acl.Write, policy.Follow, false},
		{"/tmp/new", acl.Write, policy.Follow, true},
		{"/tmp/l", acl.Write, policy.Follow, false},
		{"/tmp/l", acl.Write, policy.NoFollow, true},
	} {
		err := policy.Check(src, "unix:visitor", c.path, c.want, c.how)
		if c.allow && err != nil || !c.allow && !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("Check(%s, %v, how %d) = %v, want allow=%v", c.path, c.want, c.how, err, c.allow)
		}
	}
	for dir, allow := range map[string]bool{"/own": true, "/tmp": true, "/pub": false} {
		child, parent, err := policy.Mkdir(src, "unix:visitor", dir+"/sub")
		if child != nil || parent != nil {
			t.Errorf("Mkdir under ACL-less %s minted ACLs %v, %v", dir, child, parent)
		}
		if allow && err != nil || !allow && !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("Mkdir under %s = %v, want allow=%v", dir, err, allow)
		}
	}
}

// Mkdir's ACLs: w clones the parent, v(...) alone mints exactly the
// reserve set, and a refusal still hands back the ACL it consulted.
func TestMkdirChildACL(t *testing.T) {
	fs := vfs.New("owner")
	fs.Mkdir("/d", 0o755, "owner")
	const text = "unix:admin rwlax\nunix:writer rwl\nunix:* v(rwlx)\nunix:reader rl\n"
	fs.WriteFile("/d/"+acl.FileName, []byte(text), 0o644, "owner")
	src := fakeSource{fs}
	for who, want := range map[identity.Principal]string{
		"unix:writer":   text,
		"unix:stranger": "unix:stranger rwlx\n",
	} {
		child, parent, err := policy.Mkdir(src, who, "/d/sub")
		if err != nil || child.String() != want || parent.String() != text {
			t.Errorf("Mkdir as %s: child %q, parent %q, %v; want child %q", who, child, parent, err, want)
		}
	}
	fs.WriteFile("/d/"+acl.FileName, []byte("unix:admin rwlax\nunix:reader rl\n"), 0o644, "owner")
	child, parent, err := policy.Mkdir(src, "unix:reader", "/d/sub")
	if !errors.Is(err, vfs.ErrPermission) || child != nil || parent == nil {
		t.Errorf("Mkdir with rl only: child %v, parent %v, %v; want EPERM and the parent ACL", child, parent, err)
	}
}
