package chirp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"identitybox/internal/auth"
	"identitybox/internal/faultnet"
	"identitybox/internal/kernel"
)

// pipelinedClient dials as unix:admin with a pipelining window.
func pipelinedClient(t *testing.T, srv *Server, depth int) *Client {
	t.Helper()
	cl, err := DialOpts(srv.Addr(), []auth.Authenticator{&auth.UnixClient{User: "admin"}},
		ClientOptions{PipelineDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// patterned builds a non-repeating test payload so any chunk landing at
// the wrong offset changes the bytes.
func patterned(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i>>8 + i)
	}
	return out
}

// TestPipelinedPutGetRoundTrip pushes files of awkward sizes through
// the windowed transfer paths and checks byte-exact round trips, cross-
// checked by a serial client reading the same files.
func TestPipelinedPutGetRoundTrip(t *testing.T) {
	srv, _, _ := testServer(t)
	pipe := pipelinedClient(t, srv, 4)
	serial := pipelinedClient(t, srv, 1)
	sizes := []int{0, 1, transferChunk - 1, transferChunk, transferChunk + 1, 4*transferChunk + 123}
	for i, size := range sizes {
		path := fmt.Sprintf("/f%d", i)
		want := patterned(size)
		if err := pipe.PutFile(path, want, 0o644); err != nil {
			t.Fatalf("PutFile(%d bytes): %v", size, err)
		}
		got, err := pipe.GetFile(path)
		if err != nil {
			t.Fatalf("GetFile(%d bytes): %v", size, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pipelined round trip corrupted %d-byte file", size)
		}
		cross, err := serial.GetFile(path)
		if err != nil {
			t.Fatalf("serial GetFile(%d bytes): %v", size, err)
		}
		if !bytes.Equal(cross, want) {
			t.Fatalf("serial read of pipelined write wrong for %d bytes", size)
		}
	}
}

// TestPipelinedTransferUnderFaults resets the first connection part-way
// through a windowed transfer; the composite layer must restart it on a
// fresh session and deliver intact bytes.
func TestPipelinedTransferUnderFaults(t *testing.T) {
	data := patterned(6 * transferChunk)
	t.Run("put", func(t *testing.T) {
		srv, _, _ := testServer(t)
		inj := faultnet.New(1, faultnet.Rule{Conn: 1, Op: faultnet.OpWrite, AfterBytes: 150_000, Action: faultnet.Reset})
		cl, err := DialOpts(srv.Addr(), []auth.Authenticator{&auth.UnixClient{User: "admin"}},
			ClientOptions{PipelineDepth: 8, Dialer: inj.Dialer("tcp")})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		if err := cl.PutFile("/blob", data, 0o644); err != nil {
			t.Fatalf("PutFile under faults: %v", err)
		}
		if inj.ConnCount() < 2 {
			t.Fatalf("ConnCount = %d; the reset should have forced a redial", inj.ConnCount())
		}
		got, err := cl.GetFile("/blob")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("readback after faulted put: %d bytes, %v", len(got), err)
		}
	})
	t.Run("get", func(t *testing.T) {
		srv, _, _ := testServer(t)
		inj := faultnet.New(1, faultnet.Rule{Conn: 1, Op: faultnet.OpRead, AfterBytes: 150_000, Action: faultnet.Reset})
		cl, err := DialOpts(srv.Addr(), []auth.Authenticator{&auth.UnixClient{User: "admin"}},
			ClientOptions{PipelineDepth: 8, Dialer: inj.Dialer("tcp")})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		if err := cl.PutFile("/blob", data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := cl.GetFile("/blob")
		if err != nil {
			t.Fatalf("GetFile under faults: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("faulted get returned %d bytes, want %d intact", len(got), len(data))
		}
		if inj.ConnCount() < 2 {
			t.Fatalf("ConnCount = %d; the reset should have forced a redial", inj.ConnCount())
		}
	})
}

// TestPipelinedRemoteErrorDrainsWindow fires a full window at a dead
// descriptor: every chunk answers EBADF, the first error surfaces, and
// the drained wire leaves the session usable.
func TestPipelinedRemoteErrorDrainsWindow(t *testing.T) {
	srv, _, _ := testServer(t)
	cl := pipelinedClient(t, srv, 4)
	fd, err := cl.Open("/dead", kernel.OWronly|kernel.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CloseFD(fd); err != nil {
		t.Fatal(err)
	}
	if err := cl.pwriteAll(fd, patterned(5*transferChunk)); !errors.Is(err, kernel.ErrBadFD) {
		t.Fatalf("pwriteAll on closed fd = %v, want EBADF", err)
	}
	if _, err := cl.Whoami(); err != nil {
		t.Fatalf("session unusable after drained pwrite window: %v", err)
	}
	if _, err := cl.preadAll(fd, 3*transferChunk); !errors.Is(err, kernel.ErrBadFD) {
		t.Fatalf("preadAll on closed fd: want EBADF")
	}
	if _, err := cl.Whoami(); err != nil {
		t.Fatalf("session unusable after drained pread window: %v", err)
	}
}

// TestPipelinedGetShrunkFile truncates a file between the stat and the
// windowed reads: the transfer must return the shrunken content and
// drain the overhanging replies without losing wire alignment.
func TestPipelinedGetShrunkFile(t *testing.T) {
	srv, _, _ := testServer(t)
	cl := pipelinedClient(t, srv, 4)
	orig := patterned(3*transferChunk + 100)
	if err := cl.PutFile("/shrink", orig, 0o644); err != nil {
		t.Fatal(err)
	}
	fd, err := cl.Open("/shrink", kernel.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.CloseFD(fd)
	newSize := int64(transferChunk + 50)
	if err := cl.Truncate("/shrink", newSize); err != nil {
		t.Fatal(err)
	}
	got, err := cl.preadAll(fd, int64(len(orig)))
	if err != nil {
		t.Fatalf("preadAll after shrink: %v", err)
	}
	if int64(len(got)) != newSize || !bytes.Equal(got, orig[:newSize]) {
		t.Fatalf("shrunken read = %d bytes, want the %d-byte prefix", len(got), newSize)
	}
	if _, err := cl.Whoami(); err != nil {
		t.Fatalf("session unusable after shrunken window: %v", err)
	}
}

// TestReadPayloadCap: wire-announced payload lengths outside
// [0, MaxPayload] are protocol errors, refused before any read or
// allocation.
func TestReadPayloadCap(t *testing.T) {
	for _, n := range []int{-1, MaxPayload + 1} {
		c := newCodec(bytes.NewBuffer(nil))
		if _, err := c.readPayload(n); err == nil || !strings.Contains(err.Error(), "protocol error") {
			t.Errorf("readPayload(%d) = %v, want protocol error", n, err)
		}
		c.release()
	}
	// The boundary value itself is accepted (and fails only on EOF).
	c := newCodec(bytes.NewBuffer(nil))
	defer c.release()
	if _, err := c.readPayload(MaxPayload); err == nil || strings.Contains(err.Error(), "protocol error") {
		t.Errorf("readPayload(MaxPayload) = %v, want plain EOF", err)
	}
}

// loopReader replays one byte sequence forever.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

// TestCodecPooledPathZeroAlloc asserts the pooled wire path is
// allocation-free in steady state, in both framings: payload reads
// serve from the codec scratch, payload writes go straight through the
// pooled bufio, and a frame's header is staged in the codec on the way
// in and on the way out. (Turning a frame's line into a string is the
// one allocation a frame costs; it is not made here.)
func TestCodecPooledPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	payload := make([]byte, transferChunk)
	var frame bytes.Buffer
	fc := newCodec(&frame)
	if err := fc.queueFrame(9, nil, []byte("pwrite 1 0 65536"), payload); err != nil {
		t.Fatal(err)
	}
	fc.flush()
	fc.release()
	c := newCodec(struct {
		io.Reader
		io.Writer
	}{&loopReader{data: frame.Bytes()}, io.Discard})
	defer c.release()
	line, prefix := []byte("ok 65536"), []byte("deadline 2000 ")
	exchange := func() {
		h, err := c.readFrameHeader()
		if err != nil || h.tag != 9 || h.payloadLen != transferChunk {
			t.Fatalf("frame header = %+v, %v", h, err)
		}
		if _, err := c.r.Discard(h.lineLen); err != nil {
			t.Fatal(err)
		}
		if _, err := c.readPayload(h.payloadLen); err != nil {
			t.Fatal(err)
		}
		if err := c.queueFrame(h.tag, prefix, line, payload); err != nil {
			t.Fatal(err)
		}
		if err := c.queueMessage(false, 0, nil, line, payload); err != nil {
			t.Fatal(err)
		}
		if err := c.flush(); err != nil {
			t.Fatal(err)
		}
	}
	exchange() // warm the scratch
	hitsBefore := poolHits.Load()
	allocs := testing.AllocsPerRun(100, exchange)
	if allocs > 0.5 {
		t.Fatalf("pooled wire path allocates %.1f allocs/op; want 0", allocs)
	}
	if poolHits.Load() <= hitsBefore {
		t.Fatal("warm payload reads did not count as pool hits")
	}
}
