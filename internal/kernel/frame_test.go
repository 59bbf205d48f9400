package kernel

import (
	"fmt"
	"strings"
	"testing"

	"identitybox/internal/vfs"
)

// describeFmt is the fmt rendering Describe replaced, kept as the
// reference its output must match byte for byte.
func describeFmt(f *Frame) string {
	arg := ""
	switch f.Sys {
	case SysStat, SysLstat, SysAccess, SysMkdir, SysRmdir, SysUnlink,
		SysReadlink, SysChmod, SysTruncate, SysGetdents, SysChdir,
		SysGetACL, SysSpawn:
		arg = fmt.Sprintf("%q", f.Path)
	case SysOpen:
		arg = fmt.Sprintf("%q, %#x", f.Path, f.Flags)
	case SysRename, SysLink, SysSymlink:
		arg = fmt.Sprintf("%q, %q", f.Path, f.Path2)
	case SysSetACL:
		arg = fmt.Sprintf("%q, %q", f.Path, f.Str)
	case SysRead, SysWrite, SysPread, SysPwrite:
		arg = fmt.Sprintf("%d, [%d bytes]", f.FD, len(f.Buf))
	case SysClose, SysFstat, SysDup:
		arg = fmt.Sprintf("%d", f.FD)
	case SysLseek:
		arg = fmt.Sprintf("%d, %d, %d", f.FD, f.Off, f.Flags)
	case SysKill:
		arg = fmt.Sprintf("%d, %d", f.PID, f.Sig)
	case SysWait:
		arg = fmt.Sprintf("%d", f.PID)
	}
	res := fmt.Sprintf("%d", f.Ret)
	if f.Err != nil {
		res = f.Err.Error()
	}
	return fmt.Sprintf("%s(%s) = %s", f.Sys, arg, res)
}

// TestFrameDescribeMatchesFmt renders every syscall number, and one
// past the table, over awkward arguments and results, and compares
// Describe with the fmt reference.
func TestFrameDescribeMatchesFmt(t *testing.T) {
	paths := []string{
		"", "/", "/work/sim.exe", `/a"quoted"/b`, "/new\nline", "/tab\there",
		"/café/日本", "/bad\xff\xfeutf8", "/nul\x00byte", `/back\slash`,
		"/" + strings.Repeat("long/", 60) + "end",
	}
	ints := []int{0, 1, 7, -1, 0x241, -0x241, 1 << 40, -1 << 63, 1<<63 - 1}
	errs := []error{
		nil, ErrPermission, ErrBadFD,
		&vfs.PathError{Op: "box", Path: "/x\n\"y\"", Err: vfs.ErrPermission},
	}
	n := 0
	for sys := Sysno(0); sys <= sysnoCount; sys++ {
		for i, path := range paths {
			for j, v := range ints {
				f := Frame{
					Sys:   sys,
					Path:  path,
					Path2: paths[(i+j+1)%len(paths)],
					Str:   paths[(i+2*j+3)%len(paths)],
					FD:    v,
					Buf:   make([]byte, j*1000),
					Off:   int64(ints[(j+1)%len(ints)]),
					Flags: v,
					PID:   ints[(j+2)%len(ints)],
					Sig:   ints[(j+3)%len(ints)],
					Ret:   int64(ints[(j+4)%len(ints)]),
					Err:   errs[(i+j)%len(errs)],
				}
				if got, want := f.Describe(), describeFmt(&f); got != want {
					t.Errorf("Describe = %q, fmt renders %q", got, want)
				}
				n++
			}
		}
	}
	t.Logf("%d frames compared", n)

	f := Frame{Sys: SysOpen, Path: "/work/sim.exe", Flags: OWronly | OCreat, Ret: 3}
	if got := testing.AllocsPerRun(100, func() { _ = f.Describe() }); got != 1 {
		t.Errorf("Describe allocates %.0f per call, want 1 (the string)", got)
	}
}
