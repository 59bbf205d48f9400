package chirp

import (
	"errors"
	"fmt"
	"testing"

	"identitybox/internal/core"
	"identitybox/internal/identity"
	"identitybox/internal/kernel"
	"identitybox/internal/vfs"
)

// TestOpenRuleOneVerdict: an open wants the rights its access mode
// names (policy.OpenWants), both r and w for mode 3, and w for O_CREAT.
// A principal with no rights on /vault/s is refused every access mode,
// plain, with O_CREAT and with O_TRUNC, alike at the three enforcement
// points: the native kernel (Unix bits, account bob on a 0600 file he
// does not own), an identity box over the kernel's file system and a
// Chirp session (the ACL, which grants unix:bob nothing). The file is
// unchanged after.
func TestOpenRuleOneVerdict(t *testing.T) {
	const secret = "the vault's bytes"
	srv, k, _ := testServer(t)
	admin := unixClient(t, srv, "admin", ProtocolV2)
	for _, step := range []error{
		admin.Mkdir("/vault", 0o755),
		admin.SetACL("/vault", "unix:admin rwlax\n"),
		admin.PutFile("/vault/s", []byte(secret), 0o600),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	box, err := core.New(k, "chirpowner", identity.Principal("unix:bob"), core.Options{
		HomeBase: "/.boxhomes", ShadowDir: "/.boxshadow",
	})
	if err != nil {
		t.Fatal(err)
	}
	bob := unixClient(t, srv, "bob", ProtocolV2)

	points := []struct {
		name string
		open func(flags int) error
	}{
		{"kernel", func(flags int) (err error) {
			k.Run(kernel.ProcSpec{Account: "bob"}, func(p *kernel.Proc, _ []string) int {
				_, err = p.Open("/vault/s", flags, 0o644)
				return 0
			})
			return err
		}},
		{"box", func(flags int) (err error) {
			box.Run(func(p *kernel.Proc, _ []string) int {
				_, err = p.Open("/vault/s", flags, 0o644)
				return 0
			})
			return err
		}},
		{"chirp", func(flags int) error {
			_, err := bob.Open("/vault/s", flags, 0o644)
			return err
		}},
	}
	for mode := 0; mode <= 3; mode++ {
		for _, extra := range []struct {
			name string
			flag int
		}{{"plain", 0}, {"creat", kernel.OCreat}, {"trunc", kernel.OTrunc}} {
			flags := mode | extra.flag
			for _, pt := range points {
				t.Run(fmt.Sprintf("mode%d/%s/%s", mode, extra.name, pt.name), func(t *testing.T) {
					if err := pt.open(flags); !errors.Is(err, vfs.ErrPermission) {
						t.Errorf("open with flags %#o = %v, want EPERM", flags, err)
					}
				})
			}
		}
	}
	if data, err := k.FS().ReadFile("/vault/s"); err != nil || string(data) != secret {
		t.Errorf("/vault/s after the refusals = %q, %v; want it unchanged", data, err)
	}
}
