package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"identitybox/internal/kernel"
)

// auditTranscript runs a fixed program in a box whose audit sink feeds
// both a ring and a JSONL stream, and returns the ring's records as
// text followed by the stream's lines. The program makes every kind of
// call the box renders, successes and failures both, small and bulk
// transfers, a child process and an out-of-band note.
func auditTranscript(t *testing.T) string {
	t.Helper()
	k := newWorld(t)
	k.RegisterProgram("child", func(p *kernel.Proc, args []string) int {
		data, err := p.ReadFile(args[0])
		if err != nil {
			return 1
		}
		if err := p.WriteFile(args[0]+".copy", data, 0o644); err != nil {
			return 2
		}
		return 0
	})
	if err := k.InstallExecutable("/tmp/child.exe", "child", "dthain"); err != nil {
		t.Fatal(err)
	}
	if err := k.FS().Chmod("/tmp/child.exe", 0o755); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	ring := NewAuditRing(1000)
	b := newBox(t, k, "Freddy", Options{AuditSink: FanoutSink{ring, NewJSONLSink(&stream)}})
	b.Note("retry: chirp server 127.0.0.1:9094 <unreachable> & \"quoted\"")
	b.Run(func(p *kernel.Proc, _ []string) int {
		p.Getpid()
		p.Getppid()
		p.GetUserName()
		p.Getcwd()
		p.ReadFile("/home/dthain/secret")
		p.Stat("/nope")
		p.Lstat("/pub/readable.txt")
		p.Access("/pub/readable.txt", kernel.AccessR)
		p.Mkdir("work", 0o755)
		p.Chdir("work")
		bulk := bytes.Repeat([]byte("0123456789abcdef"), 1200)
		fd, _ := p.Open("data", kernel.ORdwr|kernel.OCreat|kernel.OTrunc, 0o644)
		p.Write(fd, bulk)
		p.Write(fd, []byte("tail"))
		p.Pwrite(fd, bulk[:4096], 100)
		p.Pwrite(fd, []byte("x"), 0)
		buf := make([]byte, 8192)
		p.Pread(fd, buf, 10)
		p.Pread(fd, buf[:16], 10)
		p.Lseek(fd, 5, kernel.SeekSet)
		p.Read(fd, buf)
		p.Fstat(fd)
		dup, _ := p.Dup(fd)
		p.Close(dup)
		p.Close(fd)
		p.Close(99)
		r, w, _ := p.Pipe()
		p.Write(w, []byte("through the pipe"))
		p.Read(r, buf[:64])
		p.Close(r)
		p.Close(w)
		p.Symlink("data", "link")
		p.Readlink("link")
		p.Link("data", "hard")
		p.Rename("hard", "moved")
		p.Chmod("moved", 0o600)
		p.Truncate("moved", 10)
		p.Unlink("moved")
		p.ReadDir(".")
		p.GetACL(".")
		p.SetACL(".", "Freddy rwlax\nGeorge rl\n")
		p.Mkdir("gone", 0o755)
		p.Rmdir("gone")
		p.Open("/home/dthain/new", kernel.OWronly|kernel.OCreat, 0o644)
		pid, _ := p.Spawn("/tmp/child.exe", "data")
		p.Wait(pid)
		p.Kill(4242, kernel.SigKill)
		p.Ptrace(1)
		p.Mount("/dev/sda", "/mnt")
		return 0
	})
	var out strings.Builder
	for _, rec := range b.Audit() {
		fmt.Fprintf(&out, "pid=%d ident=%s denied=%v %s\n", rec.PID, rec.Identity, rec.Denied, rec.Call)
	}
	out.WriteString("--- jsonl\n")
	out.Write(stream.Bytes())
	return out.String()
}

// TestAuditTranscriptGolden: the audit log's text, as Box.Audit
// returns it and as a JSONLSink streams it, is pinned byte for byte by
// testdata/audit.golden.
func TestAuditTranscriptGolden(t *testing.T) {
	got := auditTranscript(t)
	path := filepath.Join("testdata", "audit.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: line %d differs\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
