package chirp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"identitybox/internal/kernel"
	"identitybox/internal/vfs"
)

// wireRecorder is a dialer that keeps every byte a connection carries,
// as alternating runs "C <quoted bytes>" (client to server) and "S ..."
// (server to client). The calls below run one at a time, so the runs
// alternate deterministically however the transport chunks them.
type wireRecorder struct {
	mu   sync.Mutex
	runs []string // each "C" or "S" followed by the raw bytes
}

func (r *wireRecorder) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &recordedConn{Conn: c, r: r}, nil
}

func (r *wireRecorder) add(dir byte, p []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.runs); n > 0 && r.runs[n-1][0] == dir {
		r.runs[n-1] += string(p)
		return
	}
	r.runs = append(r.runs, string(dir)+string(p))
}

// statReply matches a whole server run that is one stat-shaped reply, in
// either framing: [tag, line length, payload length] "ok <ino> <type>
// <mode> "owner" ...".
var statReply = regexp.MustCompile(`(?s)^(?:(.{8}).{4}(\x00{4}))?ok (\d+)( \d+ [0-7]+ ".*)$`)

// transcript renders the runs. Inode numbers come from a process-wide
// counter, so each is rewritten as its offset from rootIno (and a
// frame's line length recomputed): everything else is byte for byte.
func (r *wireRecorder) transcript(rootIno uint64) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, run := range r.runs {
		dir, data := run[0], run[1:]
		if m := statReply.FindStringSubmatch(data); m != nil && dir == 'S' {
			ino, _ := strconv.ParseUint(m[3], 10, 64)
			data = "ok " + strconv.FormatUint(ino-rootIno, 10) + m[4]
			if m[1] != "" {
				data = m[1] + string(binary.BigEndian.AppendUint32(nil, uint32(len(data)))) + m[2] + data
			}
		}
		fmt.Fprintf(&b, "%c %q\n", dir, data)
	}
	return b.String()
}

type recordedConn struct {
	net.Conn
	r *wireRecorder
}

func (c *recordedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.r.add('S', p[:n])
	}
	return n, err
}

// Write records before it writes: the reply may be read, and recorded,
// by another goroutine before the write call returns.
func (c *recordedConn) Write(p []byte) (int, error) {
	c.r.add('C', p)
	return c.Conn.Write(p)
}

// TestGoldenWireTranscript pins the bytes on the wire, both directions,
// both framings: authentication, the version exchange, stat, open,
// pread, close, getdir, getacl, setacl, a tokened mkdir and its replay,
// and error replies. testdata/wire_v{1,2}.golden were written by this
// same sequence at the commit before the append-encoded wire path (PR
// 20), whose claim is that it changes no byte; any later change to them
// is a protocol change old peers will see.
func TestGoldenWireTranscript(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		srv, k, _ := testServer(t)
		root, err := k.FS().Stat("/")
		if err != nil {
			t.Fatal(err)
		}
		rec := &wireRecorder{}
		cl := adminClient(t, srv, ClientOptions{Protocol: proto, DisableRetries: true, Dialer: rec.dial})
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(cl.Mkdir("/data dir", 0o755))
		must(cl.PutFile("/data dir/a \"quoted\" name\\.txt", []byte("hello, wire\n"), 0o644))
		must(cl.Symlink("a \"quoted\" name\\.txt", "/data dir/link"))
		if _, err := cl.Stat("/data dir/link"); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Lstat("/data dir/link"); err != nil {
			t.Fatal(err)
		}
		fd, err := cl.Open("/data dir/link", kernel.ORdonly, 0)
		must(err)
		buf := make([]byte, 64)
		if n, err := cl.Pread(fd, buf, 7); err != nil || string(buf[:n]) != "wire\n" {
			t.Fatalf("pread = %q, %v", buf[:n], err)
		}
		if _, err := cl.FstatFD(fd); err != nil {
			t.Fatal(err)
		}
		must(cl.CloseFD(fd))
		if _, err := cl.ReadDir("/data dir"); err != nil {
			t.Fatal(err)
		}
		text, err := cl.GetACL("/data dir")
		must(err)
		must(cl.SetACL("/data dir", text+"unix:bob rl\n"))
		if _, err := cl.Readlink("/data dir/link"); err != nil {
			t.Fatal(err)
		}
		// A tokened mkdir, then the same token again: the second reply is
		// the dedupe table's replay of the first, success and failure alike.
		for _, path := range []string{"/data dir/sub", "/data dir"} {
			for attempt := 0; attempt < 2; attempt++ {
				_, err := cl.rpc("token", q("golden token for "+path), "mkdir", "755", q(path))
				if (path == "/data dir") != errors.Is(err, vfs.ErrExist) {
					t.Fatalf("tokened mkdir %s (attempt %d) = %v", path, attempt, err)
				}
			}
		}
		if _, err := cl.Stat("/no such\nfile"); err == nil {
			t.Fatal("stat of a path with a newline succeeded")
		}
		if _, err := cl.Stat("/data dir/missing"); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("stat missing = %v", err)
		}
		if _, err := cl.rpc("frobnicate", "1"); !errors.Is(err, kernel.ErrNoSys) {
			t.Fatalf("unknown command = %v", err)
		}
		if _, err := cl.rpc("stat"); !errors.Is(err, vfs.ErrInvalid) {
			t.Fatalf("bare stat = %v", err)
		}
		must(cl.Truncate("/data dir/a \"quoted\" name\\.txt", 5))
		must(cl.Rename("/data dir/a \"quoted\" name\\.txt", "/data dir/b"))
		must(cl.Unlink("/data dir/b"))
		if _, err := cl.Whoami(); err != nil {
			t.Fatal(err)
		}

		got := rec.transcript(root.Ino) // before Close: whether the farewell's reply is read is a race
		path := filepath.Join("testdata", fmt.Sprintf("wire_v%d.golden", proto))
		want, err := os.ReadFile(path)
		must(err)
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
				t.Fatalf("%s: run %d differs\n got: %s\nwant: %s", path, i, g, w)
			}
		}
	})
}
