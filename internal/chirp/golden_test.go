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

// statReply matches a whole server run that is one stat-shaped reply
// frame: [tag, line length, payload length] "ok <ino> <type> <mode>
// "owner" ...".
var statReply = regexp.MustCompile(`(?s)^(.{8}).{4}(\x00{4})ok (\d+)( \d+ [0-7]+ ".*)$`)

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
			data = m[1] + string(binary.BigEndian.AppendUint32(nil, uint32(len(data)))) + m[2] + data
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

// TestGoldenWireTranscript pins the bytes on the wire, both directions:
// authentication, the version exchange, stat, open, pread, close,
// getdir, getacl, setacl, a tokened mkdir and its replay, error replies,
// and whole-file putfile/getfile. testdata/wire_v2.golden was written by
// this same sequence, less its whole-file tail, at the commit before the
// append-encoded wire path, whose claim is that it changes no byte; the
// tail's lines were appended when the whole-file commands came, leaving
// every earlier line as it was. Any other change to it is a protocol
// change old peers will see. A window of one call ("v1") puts the same
// bytes on the wire but for the window each side advertises.
func TestGoldenWireTranscript(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, k, _ := testServer(t)
		root, err := k.FS().Stat("/")
		if err != nil {
			t.Fatal(err)
		}
		rec := &wireRecorder{}
		cl := adminClient(t, srv, ClientOptions{Window: win, MaxRetries: -1, Dialer: rec.dial})
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(cl.Mkdir("/data dir", 0o755))
		// The chunk path, step by step: the lines from here on were pinned
		// when PutFile made exactly these calls.
		wfd, err := cl.Open("/data dir/a \"quoted\" name\\.txt", kernel.OWronly|kernel.OCreat|kernel.OTrunc, 0o644)
		must(err)
		if n, err := cl.Pwrite(wfd, []byte("hello, wire\n"), 0); err != nil || n != 12 {
			t.Fatalf("pwrite = %d, %v", n, err)
		}
		must(cl.CloseFD(wfd))
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
		// Whole-file staging, appended after the lines above: putfile and
		// getfile. A directory is refused as open refuses it.
		must(cl.PutFile("/data dir/whole", []byte("one request\n"), 0o600))
		if data, err := cl.GetFile("/data dir/whole"); err != nil || string(data) != "one request\n" {
			t.Fatalf("GetFile = %q, %v", data, err)
		}
		if _, err := cl.GetFile("/data dir"); !errors.Is(err, vfs.ErrIsDir) {
			t.Fatalf("GetFile of a directory = %v", err)
		}

		got := rec.transcript(root.Ino) // before Close: whether the farewell's reply is read is a race
		path := filepath.Join("testdata", "wire_v2.golden")
		golden, err := os.ReadFile(path)
		must(err)
		want := string(golden)
		if win > 0 {
			adv := fmt.Sprintf(" 2 %d ", win)
			want = strings.Replace(want, `C "version 2 64 `, `C "version`+adv, 1)
			want = strings.Replace(want, `S "ok 2 64 `, `S "ok`+adv, 1)
		}
		if got == want {
			return
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
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
