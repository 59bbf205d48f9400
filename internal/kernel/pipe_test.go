package kernel

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

func TestPipeWithinProcess(t *testing.T) {
	k := newKernel()
	run(t, k, "u", func(p *Proc, _ []string) int {
		r, w, err := p.Pipe()
		if err != nil {
			t.Fatalf("pipe: %v", err)
		}
		if n, err := p.Write(w, []byte("through the pipe")); err != nil || n != 16 {
			t.Fatalf("write = %d, %v", n, err)
		}
		buf := make([]byte, 64)
		n, err := p.Read(r, buf)
		if err != nil || string(buf[:n]) != "through the pipe" {
			t.Fatalf("read = %q, %v", buf[:n], err)
		}
		// EOF after the writer closes.
		p.Close(w)
		n, err = p.Read(r, buf)
		if err != nil || n != 0 {
			t.Fatalf("post-hangup read = %d, %v", n, err)
		}
		// EPIPE after the reader closes.
		r2, w2, _ := p.Pipe()
		p.Close(r2)
		if _, err := p.Write(w2, []byte("x")); !errors.Is(err, ErrPipe) {
			t.Fatalf("write to readerless pipe = %v, want EPIPE", err)
		}
		return 0
	})
}

// TestRefusedDescriptorCharges pins what a read or write refused with
// EBADF costs: the fixed syscall charge, and for a plain read or write
// of the wrong pipe end the pipe transfer of no bytes.
func TestRefusedDescriptorCharges(t *testing.T) {
	k := newKernel()
	m := k.Model()
	if err := k.FS().WriteFile("/f", []byte("x"), 0o666, "u"); err != nil {
		t.Fatal(err)
	}
	run(t, k, "u", func(p *Proc, _ []string) int {
		r, w, _ := p.Pipe()
		ro, err := p.Open("/f", ORdonly, 0)
		if err != nil {
			t.Fatal(err)
		}
		wo, err := p.Open("/f", OWronly, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1)
		for _, c := range []struct {
			name string
			call func() (int, error)
			cost vclock.Micros
		}{
			{"read of the write end", func() (int, error) { return p.Read(w, buf) }, m.SyscallFixed + m.ReadFixed},
			{"write of the read end", func() (int, error) { return p.Write(r, buf) }, m.SyscallFixed + m.ReadFixed},
			{"pread of the write end", func() (int, error) { return p.Pread(w, buf, 0) }, m.SyscallFixed},
			{"pwrite of the read end", func() (int, error) { return p.Pwrite(r, buf, 0) }, m.SyscallFixed},
			{"read of a write-only file", func() (int, error) { return p.Read(wo, buf) }, m.SyscallFixed},
			{"write of a read-only file", func() (int, error) { return p.Write(ro, buf) }, m.SyscallFixed},
			{"read of no descriptor", func() (int, error) { return p.Read(99, buf) }, m.SyscallFixed},
		} {
			before := p.Clock().Now()
			if _, err := c.call(); !errors.Is(err, ErrBadFD) {
				t.Errorf("%s = %v, want EBADF", c.name, err)
			}
			if now := p.Clock().Now(); now != before+c.cost {
				t.Errorf("%s charged %v, want %v", c.name, now-before, c.cost)
			}
		}
		return 0
	})
}

func TestPipeWrongDirection(t *testing.T) {
	k := newKernel()
	run(t, k, "u", func(p *Proc, _ []string) int {
		r, w, _ := p.Pipe()
		if _, err := p.Write(r, []byte("x")); !errors.Is(err, ErrBadFD) {
			t.Errorf("write to read end = %v", err)
		}
		if _, err := p.Read(w, make([]byte, 1)); !errors.Is(err, ErrBadFD) {
			t.Errorf("read from write end = %v", err)
		}
		if _, err := p.Pread(r, make([]byte, 1), 0); !errors.Is(err, vfs.ErrInvalid) {
			t.Errorf("pread on pipe = %v, want ESPIPE", err)
		}
		if _, err := p.Lseek(r, 0, SeekSet); !errors.Is(err, vfs.ErrInvalid) {
			t.Errorf("lseek on pipe = %v, want ESPIPE", err)
		}
		st, err := p.Fstat(w)
		if err != nil || st.Mode != 0o600 {
			t.Errorf("fstat on pipe = %+v, %v", st, err)
		}
		return 0
	})
}

func TestPipeInheritedByChild(t *testing.T) {
	k := newKernel()
	k.RegisterProgram("producer", func(p *Proc, args []string) int {
		// The child writes to the inherited write end. Descriptor
		// numbers are inherited unchanged, passed via args.
		w := atoi(args[0])
		if _, err := p.Write(w, []byte("from the child")); err != nil {
			return 1
		}
		p.Close(w)
		return 0
	})
	k.InstallExecutable("/bin/producer", "producer", RootAccount)
	run(t, k, "u", func(p *Proc, _ []string) int {
		r, w, err := p.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		pid, err := p.Spawn("/bin/producer", itoa(w))
		if err != nil {
			t.Fatalf("spawn: %v", err)
		}
		if _, status, _ := p.Wait(pid); status != 0 {
			t.Fatalf("child exited %d", status)
		}
		// Parent still holds its write end open; data is buffered.
		p.Close(w)
		buf := make([]byte, 64)
		n, err := p.Read(r, buf)
		if err != nil || string(buf[:n]) != "from the child" {
			t.Fatalf("read = %q, %v", buf[:n], err)
		}
		// All writers (parent + child) are gone: EOF.
		n, err = p.Read(r, buf)
		if err != nil || n != 0 {
			t.Fatalf("eof read = %d, %v", n, err)
		}
		return 0
	})
}

func TestConcurrentPipeStreaming(t *testing.T) {
	// A producer and a consumer as concurrent top-level processes,
	// streaming more data than the pipe buffers — blocking both ways.
	k := newKernel()
	r, w := NewPipe(1024)
	payload := bytes.Repeat([]byte("streaming-data."), 4096) // ~60 kB

	producer := k.Start(ProcSpec{Account: "u"}, func(p *Proc, _ []string) int {
		defer w.Close()
		data := payload
		for len(data) > 0 {
			n, err := w.Write(p, data[:min(8192, len(data))])
			if err != nil {
				return 1
			}
			data = data[n:]
		}
		return 0
	})
	consumer := k.Start(ProcSpec{Account: "u"}, func(p *Proc, _ []string) int {
		var got []byte
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(p, buf)
			if err != nil {
				return 1
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, payload) {
			return 2
		}
		return 0
	})
	if st := producer.Wait(); st.Code != 0 {
		t.Fatalf("producer exited %d", st.Code)
	}
	if st := consumer.Wait(); st.Code != 0 {
		t.Fatalf("consumer exited %d", st.Code)
	}
}

func TestSignalWakesBlockedReader(t *testing.T) {
	k := newKernel()
	r, _ := NewPipe(0) // writer end never used: reader blocks forever
	started := make(chan int)
	blocked := k.Start(ProcSpec{Account: "u"}, func(p *Proc, _ []string) int {
		started <- p.Getpid()
		buf := make([]byte, 1)
		_, err := r.Read(p, buf) // blocks until killed
		if !errors.Is(err, ErrKilled) {
			return 1
		}
		return 0
	})
	pid := <-started
	// Give the reader a moment to park, then kill it.
	time.Sleep(10 * time.Millisecond)
	target := k.FindProc(pid)
	if target == nil {
		t.Fatal("blocked proc not found")
	}
	k.DeliverSignal(target, SigKill)
	done := make(chan ExitStatus, 1)
	go func() { done <- blocked.Wait() }()
	select {
	case st := <-done:
		if !st.Killed {
			t.Fatalf("status = %+v, want killed", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("signal did not wake the blocked reader")
	}
}

func TestDupPipeEndKeepsItOpen(t *testing.T) {
	k := newKernel()
	run(t, k, "u", func(p *Proc, _ []string) int {
		r, w, _ := p.Pipe()
		w2, err := p.Dup(w)
		if err != nil {
			t.Fatal(err)
		}
		p.Close(w) // one of two write descriptors
		if _, err := p.Write(w2, []byte("still open")); err != nil {
			t.Fatalf("write via dup = %v", err)
		}
		buf := make([]byte, 16)
		n, _ := p.Read(r, buf)
		if string(buf[:n]) != "still open" {
			t.Fatalf("read = %q", buf[:n])
		}
		p.Close(w2)
		// Now EOF.
		n, err = p.Read(r, buf)
		if err != nil || n != 0 {
			t.Fatalf("eof = %d, %v", n, err)
		}
		return 0
	})
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
