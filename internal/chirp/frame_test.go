package chirp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"identitybox/internal/obs"
)

// TestFrameHeaderRoundTrip encodes and re-parses headers across the
// legal boundary values.
func TestFrameHeaderRoundTrip(t *testing.T) {
	cases := []frameHeader{
		{tag: 1, lineLen: 1, payloadLen: 0},
		{tag: 1, lineLen: MaxLine, payloadLen: MaxPayload},
		{tag: ^uint64(0), lineLen: 7, payloadLen: 42},
	}
	for _, want := range cases {
		var b [frameHeaderSize]byte
		putFrameHeader(b[:], want.tag, want.lineLen, want.payloadLen)
		got, err := parseFrameHeader(b[:])
		if err != nil {
			t.Fatalf("parse(%+v) = %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip = %+v, want %+v", got, want)
		}
	}
}

// TestFrameHeaderRejections: every malformed header is refused with a
// protocol error before any allocation or read happens.
func TestFrameHeaderRejections(t *testing.T) {
	mk := func(tag uint64, lineLen, payloadLen uint32) []byte {
		b := make([]byte, frameHeaderSize)
		binary.BigEndian.PutUint64(b[0:8], tag)
		binary.BigEndian.PutUint32(b[8:12], lineLen)
		binary.BigEndian.PutUint32(b[12:16], payloadLen)
		return b
	}
	cases := []struct {
		name string
		raw  []byte
	}{
		{"short header", mk(1, 1, 0)[:frameHeaderSize-1]},
		{"zero tag", mk(0, 1, 0)},
		{"zero line length", mk(1, 0, 0)},
		{"line length over MaxLine", mk(1, MaxLine+1, 0)},
		{"payload over MaxPayload", mk(1, 1, MaxPayload+1)},
		{"huge payload length", mk(1, 1, ^uint32(0)>>1)},
	}
	for _, c := range cases {
		if _, err := parseFrameHeader(c.raw); err == nil ||
			!strings.Contains(err.Error(), "protocol error") {
			t.Errorf("%s: err = %v, want protocol error", c.name, err)
		}
	}
}

// TestQueueFrameValidation: the writer refuses frames the reader would
// reject, before anything hits the wire.
func TestQueueFrameValidation(t *testing.T) {
	var buf bytes.Buffer
	c := newCodec(&buf)
	defer c.release()
	if err := c.queueFrame(1, nil, []byte("bad\nline"), nil); err == nil {
		t.Error("embedded newline accepted")
	}
	if err := c.queueFrame(1, []byte("deadline 5\r "), []byte("stat"), nil); err == nil {
		t.Error("embedded newline in the prefix accepted")
	}
	if err := c.queueFrame(1, nil, nil, nil); err == nil {
		t.Error("empty line accepted")
	}
	if err := c.queueFrame(1, []byte("x"), bytes.Repeat([]byte("x"), MaxLine), nil); err == nil {
		t.Error("oversized prefix+line accepted")
	}
	if err := c.queueFrame(1, nil, []byte("ok"), make([]byte, MaxPayload+1)); err == nil {
		t.Error("oversized payload accepted")
	}
	if c.w.Buffered() != 0 {
		t.Errorf("refused frames left %d bytes queued", c.w.Buffered())
	}
}

// TestFrameWireRoundTrip writes frames through a frame writer and reads
// them back, payloads included, in order.
func TestFrameWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := &frameWriter{c: newCodec(&buf)}
	defer w.release()
	if err := w.write(7, []byte("deadline 9 "), []byte("pwrite 1 0 5"), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := w.write(8, nil, []byte("whoami"), nil); err != nil {
		t.Fatal(err)
	}
	r := newCodec(&buf)
	defer r.release()
	h, err := r.readFrameHeader()
	if err != nil || h.tag != 7 || h.payloadLen != 5 {
		t.Fatalf("frame 1 header = %+v, %v", h, err)
	}
	line, err := r.readFrameLine(h.lineLen)
	if err != nil || string(line) != "deadline 9 pwrite 1 0 5" {
		t.Fatalf("frame 1 line = %q, %v", line, err)
	}
	body, err := r.readPayload(h.payloadLen)
	if err != nil || string(body) != "hello" {
		t.Fatalf("frame 1 payload = %q, %v", body, err)
	}
	h, err = r.readFrameHeader()
	if err != nil || h.tag != 8 || h.payloadLen != 0 {
		t.Fatalf("frame 2 header = %+v, %v", h, err)
	}
	if line, err = r.readFrameLine(h.lineLen); err != nil || string(line) != "whoami" {
		t.Fatalf("frame 2 line = %q, %v", line, err)
	}
}

// gatedWriter closes entered at its first Write and holds that Write
// until gate is closed; it records everything written.
type gatedWriter struct {
	entered, gate chan struct{}
	once          sync.Once
	buf           bytes.Buffer
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.gate
	})
	return g.buf.Write(p)
}

// TestFrameWriterLastInFlushes pins the frame writer's two rules. A
// writer whose frame is queued while another waits for the lock leaves
// its flush to that waiter, and the waiter flushes it even when its own
// frame fails validation; and a severed writer writes nothing.
func TestFrameWriterLastInFlushes(t *testing.T) {
	t.Run("left-to-a-failing-waiter", func(t *testing.T) {
		gw := &gatedWriter{entered: make(chan struct{}), gate: make(chan struct{})}
		var flushes obs.Counter
		w := &frameWriter{c: newCodec(struct {
			io.Reader
			io.Writer
		}{strings.NewReader(""), gw}), flushes: &flushes}
		defer w.release()
		// A payload past the bufio buffer makes the first writer's queue
		// reach the wire, where the gate holds it inside the lock.
		payload := bytes.Repeat([]byte("p"), wireBufSize+100)
		first, second := make(chan error, 1), make(chan error, 1)
		go func() { first <- w.write(1, nil, []byte("first"), payload) }()
		<-gw.entered
		go func() { second <- w.write(2, nil, []byte("bad\nline"), nil) }()
		for w.waiting.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		close(gw.gate)
		if err := <-first; err != nil {
			t.Fatalf("first write = %v", err)
		}
		if err := <-second; err == nil || !strings.Contains(err.Error(), "embedded newline") {
			t.Fatalf("second write = %v, want the validation error", err)
		}
		if n := flushes.Value(); n != 1 {
			t.Fatalf("flushes = %d, want 1: the waiter's", n)
		}
		if got, want := gw.buf.Len(), frameHeaderSize+len("first")+len(payload); got != want {
			t.Fatalf("the wire holds %d bytes, want the whole first frame's %d", got, want)
		}
		r := newCodec(&gw.buf)
		defer r.release()
		if h, err := r.readFrameHeader(); err != nil || h.tag != 1 || h.payloadLen != len(payload) {
			t.Fatalf("frame = %+v, %v; want the first writer's", h, err)
		}
	})
	t.Run("severed", func(t *testing.T) {
		var wire bytes.Buffer
		w := &frameWriter{c: newCodec(&wire), severed: func() bool { return true }}
		defer w.release()
		if err := w.write(1, nil, []byte("ok"), nil); !errors.Is(err, errSevered) || wire.Len() != 0 {
			t.Fatalf("severed write = %v with %d bytes on the wire, want errSevered and none", err, wire.Len())
		}
	})
}

// FuzzFrameDecode throws arbitrary bytes at the v2 frame decoder: it
// must never panic, and any header it does accept stays within the
// validated bounds (so nothing downstream allocates beyond MaxLine +
// MaxPayload). Truncated input, zero tags and hostile lengths must all
// surface as errors before allocation.
func FuzzFrameDecode(f *testing.F) {
	// A valid frame, a truncated one, and hostile headers seed the corpus.
	var valid bytes.Buffer
	w := &frameWriter{c: newCodec(&valid)}
	w.write(3, nil, []byte("stat /etc"), []byte("body"))
	w.release()
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:frameHeaderSize-2])
	zeroTag := make([]byte, frameHeaderSize)
	binary.BigEndian.PutUint32(zeroTag[8:12], 4)
	f.Add(zeroTag)
	huge := make([]byte, frameHeaderSize)
	binary.BigEndian.PutUint64(huge[0:8], 9)
	binary.BigEndian.PutUint32(huge[8:12], ^uint32(0))
	binary.BigEndian.PutUint32(huge[12:16], ^uint32(0))
	f.Add(huge)

	f.Fuzz(func(t *testing.T, raw []byte) {
		c := newCodec(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(raw), io.Discard})
		defer c.release()
		for {
			h, err := c.readFrameHeader()
			if err != nil {
				return // malformed or exhausted: rejected without panic
			}
			if h.tag == 0 || h.lineLen < 1 || h.lineLen > MaxLine ||
				h.payloadLen < 0 || h.payloadLen > MaxPayload {
				t.Fatalf("accepted out-of-bounds header %+v", h)
			}
			if _, err := c.readFrameLine(h.lineLen); err != nil {
				return
			}
			if _, err := c.readPayload(h.payloadLen); err != nil {
				return
			}
		}
	})
}
