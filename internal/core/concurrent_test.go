package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"identitybox/internal/identity"
	"identitybox/internal/kernel"
	"identitybox/internal/trap"
	"identitybox/internal/vfs"
)

// TestConcurrentBoxedProcesses runs eight boxes on one kernel at once.
// Each opens, writes, reads, stats, spawns and waits, and checks that
// every result is its own, while a process parked in a pipe read is
// signalled across boxes: refused from another identity, delivered
// from a second box of its own. Every process reuses one syscall frame
// for all its calls, so under the race detector this pins that no
// frame is shared between processes.
func TestConcurrentBoxedProcesses(t *testing.T) {
	const boxes, rounds = 8, 12
	k := newWorld(t)
	k.RegisterProgram("stamp", func(p *kernel.Proc, args []string) int {
		if err := p.WriteFile(args[0], []byte(args[1]), 0o644); err != nil {
			return 1
		}
		return len(args[1])
	})
	if err := k.InstallExecutable("/tmp/stamp.exe", "stamp", "dthain"); err != nil {
		t.Fatal(err)
	}
	if err := k.FS().Chmod("/tmp/stamp.exe", 0o755); err != nil {
		t.Fatal(err)
	}

	// Boxes i and i+4 carry the same identity: the victim runs in box
	// 7, box 0 (another identity) may not signal it, box 3 may.
	bs := make([]*Box, boxes)
	for i := range bs {
		bs[i] = newBox(t, k, identity.Principal(fmt.Sprintf("visitor%d", i%4)), Options{})
	}
	victimPID := make(chan int, 1)
	refused := make(chan struct{})

	work := func(p *kernel.Proc, i int) {
		dir := bs[i].Home()
		buf := make([]byte, 64)
		for r := 0; r < rounds; r++ {
			name := fmt.Sprintf("%s/box%d-%d", dir, i, r)
			want := []byte(fmt.Sprintf("box %d round %d", i, r))
			fd, err := p.Open(name, kernel.ORdwr|kernel.OCreat|kernel.OTrunc, 0o644)
			if err != nil {
				t.Errorf("box %d: open %s: %v", i, name, err)
				return
			}
			if n, err := p.Write(fd, want); err != nil || n != len(want) {
				t.Errorf("box %d: write = %d, %v", i, n, err)
			}
			if n, err := p.Pread(fd, buf, 0); err != nil || !bytes.Equal(buf[:n], want) {
				t.Errorf("box %d: pread = %q, %v; want %q", i, buf[:n], err, want)
			}
			if err := p.Close(fd); err != nil {
				t.Errorf("box %d: close: %v", i, err)
			}
			if st, err := p.Stat(name); err != nil || st.Size != int64(len(want)) {
				t.Errorf("box %d: stat size = %d, %v; want %d", i, st.Size, err, len(want))
			}
			out := name + ".child"
			msg := fmt.Sprintf("child of box %d round %d", i, r)
			pid, err := p.Spawn("/tmp/stamp.exe", out, msg)
			if err != nil {
				t.Errorf("box %d: spawn: %v", i, err)
				return
			}
			if got, status, err := p.Wait(pid); err != nil || got != pid || status != len(msg) {
				t.Errorf("box %d: wait = %d, %d, %v; want %d, %d", i, got, status, err, pid, len(msg))
			}
			if data, err := p.ReadFile(out); err != nil || string(data) != msg {
				t.Errorf("box %d: child wrote %q, %v; want %q", i, data, err, msg)
			}
			if who := p.GetUserName(); who != string(bs[i].Identity()) {
				t.Errorf("box %d: get_user_name = %q", i, who)
			}
		}
	}

	statuses := make([]kernel.ExitStatus, boxes)
	var wg sync.WaitGroup
	for i := 0; i < boxes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i] = bs[i].Run(func(p *kernel.Proc, _ []string) int {
				work(p, i)
				switch i {
				case 7:
					// Park in a blocking read nobody will satisfy: the
					// process holds the only write end itself.
					r, _, err := p.Pipe()
					if err != nil {
						t.Errorf("victim pipe: %v", err)
						return 1
					}
					victimPID <- p.Getpid()
					n, err := p.Read(r, make([]byte, 8))
					if !errors.Is(err, kernel.ErrKilled) {
						t.Errorf("victim read = %d, %v; want killed", n, err)
					}
				case 0:
					pid := <-victimPID
					if err := p.Kill(pid, kernel.SigKill); !errors.Is(err, vfs.ErrPermission) {
						t.Errorf("cross-identity kill = %v, want denied", err)
					}
					victimPID <- pid
					close(refused)
				case 3:
					<-refused
					if err := p.Kill(<-victimPID, kernel.SigKill); err != nil {
						t.Errorf("same-identity kill across boxes = %v", err)
					}
				}
				return 0
			})
		}(i)
	}
	wg.Wait()

	for i, st := range statuses {
		if wantKilled := i == 7; st.Killed != wantKilled {
			t.Errorf("box %d: killed = %v, want %v (status %+v)", i, st.Killed, wantKilled, st)
		}
		if i != 7 && st.Code != 0 {
			t.Errorf("box %d: exit = %d", i, st.Code)
		}
		// The audit trail names the program of every spawn.
		spawns := 0
		for _, rec := range bs[i].Audit() {
			if strings.HasPrefix(rec.Call.String(), `spawn("/tmp/stamp.exe") = `) {
				spawns++
			}
		}
		if spawns != rounds {
			t.Errorf("box %d: audit names %d spawns of /tmp/stamp.exe, want %d", i, spawns, rounds)
		}
	}
}

// TestBoxBulkIOConcurrentProcesses runs four processes at once in one
// box, each moving transfers above trap.BulkThreshold through read,
// write, pread and pwrite on a file of its own, and checks every byte
// it gets back is its own: each process stages bulk data in a channel
// region of its own, never in one shared by the box.
func TestBoxBulkIOConcurrentProcesses(t *testing.T) {
	const procs, rounds, size = 4, 150, 4096
	k := newWorld(t)
	b := newBox(t, k, "Freddy", Options{})
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("%s/bulk%d", b.Home(), i)
			st := b.Run(func(p *kernel.Proc, _ []string) int {
				fd, err := p.Open(name, kernel.ORdwr|kernel.OCreat|kernel.OTrunc, 0o644)
				if err != nil {
					t.Errorf("proc %d: open: %v", i, err)
					return 1
				}
				want := make([]byte, size)
				got := make([]byte, size)
				for r := 0; r < rounds; r++ {
					for j := range want {
						want[j] = byte(i*64 + r + j%7)
					}
					if r%2 == 0 {
						if _, err := p.Lseek(fd, 0, kernel.SeekSet); err != nil {
							t.Errorf("proc %d: lseek: %v", i, err)
							return 1
						}
						if n, err := p.Write(fd, want); err != nil || n != size {
							t.Errorf("proc %d round %d: write = %d, %v", i, r, n, err)
							return 1
						}
					} else if n, err := p.Pwrite(fd, want, 0); err != nil || n != size {
						t.Errorf("proc %d round %d: pwrite = %d, %v", i, r, n, err)
						return 1
					}
					if n, err := p.Pread(fd, got, 0); err != nil || n != size || !bytes.Equal(got, want) {
						t.Errorf("proc %d round %d: pread = %d, %v, own bytes %v", i, r, n, err, bytes.Equal(got, want))
						return 1
					}
					if _, err := p.Lseek(fd, 0, kernel.SeekSet); err != nil {
						t.Errorf("proc %d: lseek: %v", i, err)
						return 1
					}
					if n, err := p.Read(fd, got); err != nil || n != size || !bytes.Equal(got, want) {
						t.Errorf("proc %d round %d: read = %d, %v, own bytes %v", i, r, n, err, bytes.Equal(got, want))
						return 1
					}
				}
				if err := p.Close(fd); err != nil {
					t.Errorf("proc %d: close: %v", i, err)
				}
				data, err := p.ReadFile(name)
				if err != nil || len(data) != size || data[0] != byte(i*64+rounds-1) {
					t.Errorf("proc %d: file holds %d bytes starting %v, %v", i, len(data), data[:min(len(data), 1)], err)
				}
				return 0
			})
			if st.Code != 0 {
				t.Errorf("proc %d: exit %d", i, st.Code)
			}
		}()
	}
	wg.Wait()
}

// TestBoxedReadOverChannelCapacity: a read asking for more than the I/O
// channel holds returns short, and reading on delivers every byte once.
func TestBoxedReadOverChannelCapacity(t *testing.T) {
	k := newWorld(t)
	b := newBox(t, k, "Freddy", Options{})
	path := b.Home() + "/big"
	want := make([]byte, 3*trap.DefaultChannelBytes)
	for i := range want {
		want[i] = byte(i % 251)
	}
	if err := k.FS().WriteFile(path, want, 0o644, "dthain"); err != nil {
		t.Fatal(err)
	}
	b.Run(func(p *kernel.Proc, _ []string) int {
		fd, err := p.Open(path, kernel.ORdonly, 0)
		if err != nil {
			t.Errorf("open: %v", err)
			return 1
		}
		buf := make([]byte, 2*trap.DefaultChannelBytes)
		var got []byte
		for {
			n, err := p.Read(fd, buf)
			if err != nil {
				t.Errorf("read: %v", err)
				return 1
			}
			if n == 0 {
				break
			}
			if n > trap.DefaultChannelBytes {
				t.Errorf("read returned %d bytes, more than the channel's %d", n, trap.DefaultChannelBytes)
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("read back %d bytes, want the file's %d intact", len(got), len(want))
		}
		return 0
	})
}
