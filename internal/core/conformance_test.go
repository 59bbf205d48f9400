package core

import (
	"errors"
	"os"
	"strings"
	"testing"

	"identitybox/internal/acl"
	"identitybox/internal/identity"
	"identitybox/internal/kernel"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

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

// The rule's script, as system calls of processes boxed under each
// principal it names.
func TestBoxConformance(t *testing.T) {
	fs := vfs.New("owner")
	k := kernel.New(fs, vclock.Default())
	boxes := map[identity.Principal]*Box{}
	runConformance(t, fs, func(who identity.Principal, op string, a []string) error {
		b := boxes[who]
		if b == nil {
			var err error
			if b, err = New(k, "owner", who, Options{}); err != nil {
				t.Fatal(err)
			}
			boxes[who] = b
		}
		var err error
		b.Run(func(p *kernel.Proc, _ []string) int {
			err = boxOp(p, who, op, a)
			return 0
		})
		return err
	})
}

func boxOp(p *kernel.Proc, who identity.Principal, op string, a []string) error {
	open := func(flags int) error {
		fd, err := p.Open(a[0], flags, 0o644)
		if err == nil {
			err = p.Close(fd)
		}
		return err
	}
	var err error
	switch op {
	case "stat":
		_, err = p.Stat(a[0])
	case "readlink":
		_, err = p.Readlink(a[0])
	case "getdir":
		_, err = p.ReadDir(a[0])
	case "getacl":
		_, err = p.GetACL(a[0])
	case "setacl":
		err = p.SetACL(a[0], "unix:admin rwlax\n"+who.String()+" rwlax\n")
	case "read":
		err = open(kernel.ORdonly)
	case "write":
		err = open(kernel.OWronly)
	case "create":
		err = open(kernel.OWronly | kernel.OCreat)
	case "truncate":
		err = p.Truncate(a[0], 0)
	case "unlink":
		err = p.Unlink(a[0])
	case "rmdir":
		err = p.Rmdir(a[0])
	case "symlink":
		err = p.Symlink(a[0], a[1])
	case "rename":
		err = p.Rename(a[0], a[1])
	case "link":
		err = p.Link(a[0], a[1])
	case "mkdir":
		err = p.Mkdir(a[0], 0o755)
	default:
		err = errors.New("unknown operation " + op)
	}
	return err
}
