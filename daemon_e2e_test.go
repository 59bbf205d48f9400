package identitybox

// Daemon-level end-to-end: build the real binaries, run chirpd and
// catalogd as OS processes, drive them with the chirp CLI, restart the
// server and verify state persistence. Skipped in -short mode.

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildTools compiles the CLI binaries once into a temp dir.
func buildTools(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	out := map[string]string{}
	for _, n := range names {
		bin := filepath.Join(dir, n)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+n)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", n, err, b)
		}
		out[n] = bin
	}
	return out
}

// freePort grabs an ephemeral TCP port that is also free for UDP.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// waitDial polls until the address accepts connections.
func waitDial(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("server at %s never came up", addr)
}

func TestChirpDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemons")
	}
	bins := buildTools(t, "chirpd", "chirp", "catalogd")
	stateDir := filepath.Join(t.TempDir(), "chirpd.state")
	addr := freePort(t)
	catAddr := freePort(t)

	// Catalog daemon.
	catalog := exec.Command(bins["catalogd"], "-addr", catAddr)
	if err := catalog.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		catalog.Process.Signal(os.Interrupt)
		catalog.Wait()
	}()
	waitDial(t, catAddr)

	startServer := func() *exec.Cmd {
		srv := exec.Command(bins["chirpd"],
			"-addr", addr,
			"-owner", "daemonowner",
			"-root-acl", "unix:* rwlax",
			"-catalog", catAddr,
			"-name", "e2e-server",
			"-state", stateDir)
		srv.Stdout = os.Stderr
		srv.Stderr = os.Stderr
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		waitDial(t, addr)
		return srv
	}
	srv := startServer()
	stopServer := func(c *exec.Cmd) {
		c.Process.Signal(syscall.SIGINT)
		done := make(chan error, 1)
		go func() { done <- c.Wait() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			c.Process.Kill()
			t.Fatal("chirpd did not shut down on SIGINT")
		}
	}

	cli := func(args ...string) string {
		t.Helper()
		full := append([]string{"-addr", addr, "-user", "alice"}, args...)
		out, err := exec.Command(bins["chirp"], full...).CombinedOutput()
		if err != nil {
			t.Fatalf("chirp %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// Exercise the CLI against the live daemon.
	if got := cli("whoami"); !strings.Contains(got, "unix:alice") {
		t.Fatalf("whoami = %q", got)
	}
	cli("mkdir", "/work")
	local := filepath.Join(t.TempDir(), "payload.txt")
	os.WriteFile(local, []byte("persisted across restarts"), 0o644)
	cli("put", local, "/work/payload.txt")
	if got := cli("cat", "/work/payload.txt"); !strings.Contains(got, "persisted across restarts") {
		t.Fatalf("cat = %q", got)
	}
	if got := cli("ls", "/work"); !strings.Contains(got, "payload.txt") {
		t.Fatalf("ls = %q", got)
	}
	if got := cli("stat", "/work/payload.txt"); !strings.Contains(got, "size 25") {
		t.Fatalf("stat = %q", got)
	}
	// Remote exec of a staged demo program.
	cli("stage", "echo", "/work/echo.exe")
	if got := cli("exec", "/work", "/work/echo.exe", "hello", "daemon"); !strings.Contains(got, "exit 0") {
		t.Fatalf("exec = %q", got)
	}
	if got := cli("cat", "/work/echo.out"); !strings.Contains(got, "hello daemon") {
		t.Fatalf("echo output = %q", got)
	}
	// ACL management.
	if got := cli("getacl", "/work"); !strings.Contains(got, "unix:*") {
		t.Fatalf("getacl = %q", got)
	}
	cli("setacl", "/work", "unix:bob", "rl")
	if got := cli("getacl", "/work"); !strings.Contains(got, "unix:bob rl") {
		t.Fatalf("getacl after set = %q", got)
	}
	// Catalog knows the server.
	catOut, err := exec.Command(bins["catalogd"], "-query", catAddr).CombinedOutput()
	if err != nil {
		t.Fatalf("catalog query: %v\n%s", err, catOut)
	}
	if !strings.Contains(string(catOut), "e2e-server") {
		t.Fatalf("catalog listing = %q", catOut)
	}

	// Restart the server: state (files AND ACLs) must survive. An
	// orderly shutdown ends with a compaction, so the directory holds a
	// published snapshot.
	stopServer(srv)
	if _, err := os.Stat(filepath.Join(stateDir, "snapshot.img")); err != nil {
		t.Fatalf("snapshot missing after shutdown: %v", err)
	}
	srv = startServer()
	defer stopServer(srv)
	if got := cli("cat", "/work/payload.txt"); !strings.Contains(got, "persisted across restarts") {
		t.Fatalf("after restart, cat = %q", got)
	}
	if got := cli("getacl", "/work"); !strings.Contains(got, "unix:bob rl") {
		t.Fatalf("after restart, getacl = %q", got)
	}
}

// TestChirpDaemonCrashRecovery kills chirpd with SIGKILL mid-workflow —
// no drain, no final snapshot — restarts it from the same -state
// directory, and requires the workflow's output to be retrievable: the
// write-ahead log alone carries the state across the crash.
func TestChirpDaemonCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemons")
	}
	bins := buildTools(t, "chirpd", "chirp")
	stateDir := filepath.Join(t.TempDir(), "chirpd.state")
	addr := freePort(t)

	startServer := func() *exec.Cmd {
		srv := exec.Command(bins["chirpd"],
			"-addr", addr,
			"-owner", "daemonowner",
			"-root-acl", "unix:* rwlax",
			"-state", stateDir,
			"-compact-every", "0") // recovery must work from the WAL alone
		srv.Stdout = os.Stderr
		srv.Stderr = os.Stderr
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		waitDial(t, addr)
		return srv
	}
	cli := func(args ...string) string {
		t.Helper()
		full := append([]string{"-addr", addr, "-user", "alice"}, args...)
		out, err := exec.Command(bins["chirp"], full...).CombinedOutput()
		if err != nil {
			t.Fatalf("chirp %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	srv := startServer()
	// The Figure-3 workflow: reserve, stage, execute. The demo "sim"
	// program XORs input.dat with 0x5a; "signal" maps to ")3=4;6".
	cli("mkdir", "/work")
	input := filepath.Join(t.TempDir(), "input.dat")
	os.WriteFile(input, []byte("signal"), 0o644)
	cli("put", input, "/work/input.dat")
	cli("stage", "sim", "/work/sim.exe")
	if got := cli("exec", "/work", "/work/sim.exe"); !strings.Contains(got, "exit 0") {
		t.Fatalf("exec = %q", got)
	}

	// Crash: SIGKILL, mid-workflow, before the output was ever read.
	srv.Process.Kill()
	srv.Wait()

	srv = startServer()
	defer func() {
		srv.Process.Signal(syscall.SIGINT)
		srv.Wait()
	}()
	if got := cli("cat", "/work/out.dat"); !strings.Contains(got, ")3=4;6") {
		t.Fatalf("out.dat after crash recovery = %q", got)
	}
	if got := cli("ls", "/work"); !strings.Contains(got, "sim.exe") {
		t.Fatalf("ls after crash recovery = %q", got)
	}
}

// TestChirpDaemonSecondInterruptForcesShutdown: a second SIGINT during
// the drain abandons it and severs sessions immediately. A raw wire
// connection authenticates and pins its session busy, so the drain
// genuinely hangs until the escalation: in one case by asking for more
// getfile replies than the socket holds and never reading them, in the
// other by sending a frame's header and line and withholding its
// payload (a session is busy from the arrival of a frame header).
func TestChirpDaemonSecondInterruptForcesShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemons")
	}
	bins := buildTools(t, "chirpd")
	for _, tc := range []struct {
		name string
		pin  func(t *testing.T, frame framer, br *bufio.Reader)
	}{
		{"getfile", func(t *testing.T, frame framer, br *bufio.Reader) {
			// Sixteen getfile replies of a 4 MiB file, 64 MiB, are more
			// than the socket buffers hold, so a worker blocks in its reply
			// write for the full -req-timeout, and the requests keep the
			// session busy meanwhile.
			frame(1, `putfile "/big" 644 4194304`, 4<<20, make([]byte, 4<<20))
			reply := make([]byte, 16+2) // its header and "ok"
			if _, err := io.ReadFull(br, reply); err != nil || string(reply[16:]) != "ok" {
				t.Fatalf("putfile reply %q, %v", reply, err)
			}
			for tag := uint64(2); tag < 18; tag++ {
				frame(tag, `getfile "/big"`, 0, nil)
			}
		}},
		{"setacl-payload-withheld", func(t *testing.T, frame framer, br *bufio.Reader) {
			frame(1, `setacl "/" 512`, 512, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			secondInterrupt(t, bins["chirpd"], tc.pin)
		})
	}
}

// framer sends one request frame: u64 tag | u32 line length | u32
// payload length, then the line and as much of the payload as given.
type framer func(tag uint64, line string, payloadLen int, payload []byte)

// secondInterrupt runs one TestChirpDaemonSecondInterruptForcesShutdown
// case: pin holds a session busy, and chirpd must keep draining past
// the first SIGINT and exit promptly at the second.
func secondInterrupt(t *testing.T, chirpd string, pin func(t *testing.T, frame framer, br *bufio.Reader)) {
	addr := freePort(t)
	srv := exec.Command(chirpd,
		"-addr", addr,
		"-owner", "daemonowner",
		"-root-acl", "unix:* rwlax",
		"-drain", "60s", // far beyond the test's patience: only escalation can end it
		"-req-timeout", "60s")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	lines := make(chan string, 64)
	scan := func(r io.Reader) {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			t.Logf("chirpd: %s", sc.Text())
			lines <- sc.Text()
		}
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()
	go scan(stdout)
	go scan(stderr)
	waitDial(t, addr)
	waitLine := func(substr string) {
		t.Helper()
		deadline := time.After(10 * time.Second)
		for {
			select {
			case l := <-lines:
				if strings.Contains(l, substr) {
					return
				}
			case <-deadline:
				t.Fatalf("never logged %q", substr)
			}
		}
	}

	// Hold a session busy: speak the wire protocol by hand, then stop
	// reading.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	send := func(b []byte) {
		t.Helper()
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(prefix string) {
		t.Helper()
		l, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(strings.TrimSpace(l), prefix) {
			t.Fatalf("wire reply %q, want prefix %q", l, prefix)
		}
	}
	send([]byte("auth unix\n"))
	expect("yes")
	send([]byte("user alice\n"))
	expect("ok unix:alice")
	send([]byte("version 2 64 8388608\n"))
	expect("ok 2 ")
	pin(t, func(tag uint64, line string, payloadLen int, payload []byte) {
		hdr := binary.BigEndian.AppendUint64(nil, tag)
		hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(line)))
		hdr = binary.BigEndian.AppendUint32(hdr, uint32(payloadLen))
		send(append(append(hdr, line...), payload...))
	}, br)
	// Give the server a moment to take the frames in (and the workers to
	// fill the socket and block); otherwise the drain nudge could find
	// the session idle first.
	time.Sleep(500 * time.Millisecond)

	if err := srv.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	waitLine("draining")
	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		t.Fatalf("chirpd exited at the first interrupt (%v): the drain did not wait for the busy session", err)
	case <-time.After(300 * time.Millisecond):
	}
	if err := srv.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	waitLine("second interrupt")
	select {
	case <-done: // exited long before the 60s drain budget: escalation worked
	case <-time.After(10 * time.Second):
		t.Fatal("chirpd did not exit after the second interrupt")
	}
}
