package identitybox

// BenchmarkAdmissionOverhead pins the cost the overload-protection
// path adds to an unsaturated request: admission ticketing, the fair
// scheduler's fast path, and the deadline capability token on the
// wire. The disabled variant is the pre-admission hot path; the gate
// in BENCH_baseline.json keeps both from regressing.

import (
	"fmt"
	"testing"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/admission"
	"identitybox/internal/auth"
	"identitybox/internal/chirp"
	"identitybox/internal/kernel"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// statServer starts a loopback server whose root ACL gives unix:admin
// every right and returns admin's session; admitted turns on admission
// control and the deadline budget on the wire.
func statServer(tb testing.TB, admitted bool) *chirp.Client {
	k := kernel.New(vfs.New("owner"), vclock.Default())
	rootACL := &acl.ACL{}
	rootACL.Set("unix:admin", acl.All, acl.None)
	sopts := chirp.ServerOptions{
		Owner:     "owner",
		RootACL:   rootACL,
		Verifiers: map[auth.Method]auth.Verifier{auth.MethodUnix: &auth.UnixVerifier{}},
	}
	copts := chirp.ClientOptions{}
	if admitted {
		sopts.Admission = admission.New(admission.Options{})
		copts.DeadlineBudget = time.Minute
	}
	srv, err := chirp.NewServer(k, sopts)
	if err != nil {
		tb.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	cl, err := chirp.DialOpts(srv.Addr(),
		[]auth.Authenticator{&auth.UnixClient{User: "admin"}}, copts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	return cl
}

func BenchmarkAdmissionOverhead(b *testing.B) {
	for _, v := range []struct {
		name     string
		admitted bool
	}{{"disabled", false}, {"enabled", true}} {
		b.Run(v.name, func(b *testing.B) {
			cl := statServer(b, v.admitted)
			b.ReportAllocs()
			b.ResetTimer()
			// stat is a Normal-class command: it pays the full admit,
			// fair-dispatch, and release cycle (whoami would ride the
			// exempt control class and measure nothing).
			for i := 0; i < b.N; i++ {
				if _, err := cl.Stat("/"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// statACLServer is BenchmarkAdmissionOverhead's enabled configuration
// with a file three directories deep whose governing ACL has entries
// entries; it returns admin's session and the file's path.
func statACLServer(tb testing.TB, entries int) (cl *chirp.Client, path string) {
	cl = statServer(tb, true)
	for _, dir := range []string{"/a", "/a/b", "/a/b/c"} {
		if err := cl.Mkdir(dir, 0o755); err != nil {
			tb.Fatal(err)
		}
	}
	// The matching entry goes last, so a lookup scans the whole list.
	a := &acl.ACL{}
	for i := 0; i < entries-1; i++ {
		a.Set(fmt.Sprintf("unix:user%03d", i), acl.Read|acl.List, acl.None)
	}
	a.Set("unix:admin", acl.All, acl.None)
	if err := cl.SetACL("/a/b/c", a.String()); err != nil {
		tb.Fatal(err)
	}
	path = "/a/b/c/f"
	if err := cl.PutFile(path, []byte("x"), 0o644); err != nil {
		tb.Fatal(err)
	}
	return cl, path
}

// BenchmarkChirpStatACL is the same-run A/B for the policy check: one
// stat round trip under a 2-entry and under a 64-entry ACL. The ACL is
// parsed once per version of its file (vfs.Memo), not once per check,
// so the two rows differ only by the linear match — and not at all in
// allocations (TestChirpStatACLAllocsEqual).
func BenchmarkChirpStatACL(b *testing.B) {
	for _, entries := range []int{2, 64} {
		b.Run(fmt.Sprintf("e%d", entries), func(b *testing.B) {
			cl, path := statACLServer(b, entries)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Stat(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestChirpStatACLAllocsEqual pins the A/B: a stat costs the same
// allocations whatever the size of the ACL that governs it.
func TestChirpStatACLAllocsEqual(t *testing.T) {
	measure := func(entries int) float64 {
		cl, path := statACLServer(t, entries)
		return testing.AllocsPerRun(200, func() {
			if _, err := cl.Stat(path); err != nil {
				t.Fatal(err)
			}
		})
	}
	if e2, e64 := measure(2), measure(64); e2 != e64 {
		t.Fatalf("stat allocs/op: %v under a 2-entry ACL, %v under a 64-entry ACL; want equal", e2, e64)
	}
}
