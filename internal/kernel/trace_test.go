package kernel

import (
	"strings"
	"testing"

	"identitybox/internal/vclock"
)

// testTracer is a minimal supervisor exercising every EntryAction,
// verifying the Figure-4 control flow at the kernel level.
type testTracer struct {
	entries   []string
	exits     []string
	nullified int
}

func (tr *testTracer) SyscallEntry(p *Proc, f *Frame) EntryAction {
	tr.entries = append(tr.entries, f.Sys.String())
	switch f.Sys {
	case SysGetUserName:
		// Implement and nullify, as the identity box does.
		f.Str = "traced-identity"
		f.SetResult(0)
		tr.nullified++
		return ActionNullify
	case SysRead:
		// Stage channel data for the kernel's final copy.
		f.ChanData = []byte("from-the-channel")
		return ActionChannelRead
	case SysWrite:
		f.ChanData = make([]byte, len(f.Buf))
		return ActionChannelWrite
	default:
		return ActionNative
	}
}

func (tr *testTracer) SyscallExit(p *Proc, f *Frame) {
	tr.exits = append(tr.exits, f.Describe())
}

func TestTracedControlFlow(t *testing.T) {
	k := newKernel()
	tr := &testTracer{}
	model := k.Model()
	st := k.Run(ProcSpec{Account: "u", Tracer: tr}, func(p *Proc, _ []string) int {
		// Nullified path.
		if got := p.GetUserName(); got != "traced-identity" {
			t.Errorf("nullified result = %q", got)
		}
		// Channel-read path: kernel copies staged data into our buffer.
		fd, _ := p.Open("/nonexistent-is-fine-fd-unused", OWronly|OCreat, 0o644)
		buf := make([]byte, 16)
		n, err := p.Read(fd, buf)
		if err != nil || string(buf[:n]) != "from-the-channel" {
			t.Errorf("channel read = %q, %v", buf[:n], err)
		}
		// Channel-write path: our data lands in the staged region.
		wn, err := p.Write(fd, []byte("outbound"))
		if err != nil || wn != 8 {
			t.Errorf("channel write = %d, %v", wn, err)
		}
		// Native path under tracing.
		if p.Getpid() <= 0 {
			t.Error("native-through-trace getpid failed")
		}
		return 0
	})
	if st.Code != 0 {
		t.Fatalf("exit = %d", st.Code)
	}
	if tr.nullified != 1 {
		t.Fatalf("nullified = %d", tr.nullified)
	}
	if len(tr.entries) != len(tr.exits) {
		t.Fatalf("entry/exit mismatch: %d vs %d", len(tr.entries), len(tr.exits))
	}
	// Every trapped call costs at least the six context switches.
	if st.Runtime < vclock.Micros(float64(len(tr.entries)))*6*model.ContextSwitch {
		t.Fatalf("runtime %v too small for %d trapped calls", st.Runtime, len(tr.entries))
	}
}

func TestFrameDescribe(t *testing.T) {
	cases := []struct {
		f    Frame
		want string
	}{
		{Frame{Sys: SysOpen, Path: "/x", Flags: 0x241, Ret: 3}, `open("/x", 0x241) = 3`},
		{Frame{Sys: SysStat, Path: "/y", Ret: 0}, `stat("/y") = 0`},
		{Frame{Sys: SysRename, Path: "/a", Path2: "/b"}, `rename("/a", "/b") = 0`},
		{Frame{Sys: SysRead, FD: 3, Buf: make([]byte, 10), Ret: 10}, `read(3, [10 bytes]) = 10`},
		{Frame{Sys: SysKill, PID: 7, Sig: 9}, `kill(7, 9) = 0`},
		{Frame{Sys: SysSpawn, Path: "/p", Args: []string{"a"}}, `spawn("/p") = 0`},
		{Frame{Sys: SysGetpid, Ret: 1}, `getpid() = 1`},
		{Frame{Sys: SysLseek, FD: 1, Off: 5, Flags: 0}, `lseek(1, 5, 0) = 0`},
		{Frame{Sys: SysWait, PID: -1}, `wait(-1) = 0`},
		{Frame{Sys: SysSetACL, Path: "/d", Str: "x rl\n"}, `setacl("/d", "x rl\n") = 0`},
	}
	for _, c := range cases {
		if got := c.f.Describe(); got != c.want {
			t.Errorf("Describe = %q, want %q", got, c.want)
		}
	}
	// Error rendering.
	f := Frame{Sys: SysOpen, Path: "/x"}
	f.SetError(ErrPermission)
	if !strings.Contains(f.Describe(), "permission denied") {
		t.Errorf("error Describe = %q", f.Describe())
	}
}

func TestSysnoString(t *testing.T) {
	if SysGetUserName.String() != "get_user_name" || SysOpen.String() != "open" {
		t.Fatal("sysno names wrong")
	}
	if Sysno(9999).String() != "sys?" {
		t.Fatal("unknown sysno should render sys?")
	}
}

func TestProcAccessors(t *testing.T) {
	k := newKernel()
	k.Run(ProcSpec{Account: "acct", Cwd: "/", Identity: "grid:me"}, func(p *Proc, _ []string) int {
		if p.Account() != "acct" || p.Identity() != "grid:me" || p.Cwd() != "/" {
			t.Errorf("accessors: %q %q %q", p.Account(), p.Identity(), p.Cwd())
		}
		if p.Kernel() != k {
			t.Error("Kernel() mismatch")
		}
		p.SetIdentity("grid:other")
		if p.Identity() != "grid:other" {
			t.Error("SetIdentity failed")
		}
		p.SetCwd("/tmp/../etc")
		if p.Cwd() != "/etc" {
			t.Errorf("SetCwd = %q", p.Cwd())
		}
		before := p.SyscallCount()
		p.Getpid()
		if p.SyscallCount() != before+1 {
			t.Error("SyscallCount did not advance")
		}
		return 0
	})
}

func TestRmdirWrapper(t *testing.T) {
	k := newKernel()
	run(t, k, "u", func(p *Proc, _ []string) int {
		p.Mkdir("/d", 0o755)
		if err := p.Rmdir("/d"); err != nil {
			t.Fatalf("rmdir: %v", err)
		}
		return 0
	})
}

func TestExecutableBytesHeader(t *testing.T) {
	b := ExecutableBytes("prog-name")
	if string(b) != ProgHeader+"prog-name\n" {
		t.Fatalf("ExecutableBytes = %q", b)
	}
}
