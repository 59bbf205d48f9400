package chirp

import (
	"errors"
	"fmt"
	"io/fs"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"identitybox/internal/admission"
	"identitybox/internal/durable"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/replica"
	"identitybox/internal/vfs"
)

// handlerSentinels is every exported sentinel a handler can return,
// with the errno its reply carries.
var handlerSentinels = map[error]string{
	vfs.ErrNotExist:            "ENOENT",
	vfs.ErrExist:               "EEXIST",
	vfs.ErrPermission:          "EPERM",
	vfs.ErrIsDir:               "EISDIR",
	vfs.ErrNotDir:              "ENOTDIR",
	vfs.ErrNotEmpty:            "ENOTEMPTY",
	vfs.ErrInvalid:             "EINVAL",
	vfs.ErrLoop:                "ELOOP",
	vfs.ErrCrossDevice:         "EXDEV",
	vfs.ErrTooBig:              "EFBIG",
	kernel.ErrBadFD:            "EBADF",
	kernel.ErrSearch:           "ESRCH",
	kernel.ErrNoSys:            "ENOSYS",
	ErrNotPrimary:              "ENOTPRIMARY",
	ErrDeadline:                "EDEADLINE",
	ErrBusy:                    "EBUSY",
	admission.ErrExpired:       "EDEADLINE",
	replica.ErrPublisherClosed: "EIO",
	durable.ErrWALClosed:       "EIO",
	durable.ErrTorn:            "EIO",
}

// TestErrnoTable checks the one errno table: names are unique, every
// sentinel a handler can return is listed by the row of its errno and
// encodes to that name (wrapped or not), each row's reply decodes back
// to its sentinel and class, names this binary does not know decode to
// EIO, and only errors no row lists — a disk's own — reach EIO unlisted.
func TestErrnoTable(t *testing.T) {
	seen, listedBy := make(map[string]bool), make(map[error]string)
	for _, e := range errnoTable {
		if seen[e.name] {
			t.Errorf("errno name %s appears twice", e.name)
		}
		seen[e.name] = true
		listed := e.errs
		if e.name == "EIO" { // EIO's first sentinel is what decoding yields; nothing returns it
			listed = listed[1:]
		}
		for _, s := range listed {
			listedBy[s] = e.name
			if want, ok := handlerSentinels[s]; !ok || want != e.name {
				t.Errorf("row %s lists %v, which handlerSentinels gives %q", e.name, s, want)
			}
		}
		re := remoteError(e.name, "msg")
		if re.Err != e.errs[0] || !errors.Is(re, e.errs[0]) {
			t.Errorf("remoteError(%s) carries sentinel %v, want %v", e.name, re.Err, e.errs[0])
		}
		if class, got := classOf(re); class != e.class || got != re {
			t.Errorf("classOf(%s) = %v, want %v", e.name, class, e.class)
		}
	}
	for s, name := range handlerSentinels {
		for _, err := range []error{s, fmt.Errorf("open /x: %w", s)} {
			if got := nameForError(err); got != name || listedBy[s] != name {
				t.Errorf("%v encodes as %s, listed by row %q; want %s by its own row", err, got, listedBy[s], name)
			}
		}
	}
	eio := remoteError("EIO", "")
	for _, name := range []string{"EFUTURE", ""} {
		if re := remoteError(name, "msg"); re.Err != eio.Err || re.class != classFinal || re.Name != name {
			t.Errorf("remoteError(%q) = %+v, want EIO's sentinel under the original name", name, re)
		}
	}
	disk := &fs.PathError{Op: "open", Path: "/state/wal.c01.s00.1.seg", Err: syscall.EIO}
	if got := nameForError(disk); got != "EIO" {
		t.Errorf("a disk error encodes as %s, want EIO", got)
	}
	for name, want := range map[string]errClass{"EBUSY": classRetrySafe, "ENOTPRIMARY": classRedirect, "EDEADLINE": classFinal, "EPERM": classFinal} {
		if class, _ := classOf(remoteError(name, "")); class != want {
			t.Errorf("class of %s = %v, want %v", name, class, want)
		}
	}
	transport := errors.New("connection reset")
	if class, re := classOf(transport); class != classTransient || re != nil {
		t.Errorf("classOf(transport error) = %v, %v; want transient, no reply", class, re)
	}
	if !isTransient(transport) || isTransient(nil) || isTransient(remoteError("EBUSY", "")) {
		t.Error("isTransient must hold for transport errors only")
	}
}

// TestErrnoFieldsRoundTrip: a row's one structured field is encoded
// into the reply's message and decoded back into RemoteError's field,
// with the reply's bytes those the server has always sent; a reply
// without the field, or with an unparsable one, decodes to the zero.
func TestErrnoFieldsRoundTrip(t *testing.T) {
	busy := errFields{RetryAfter: 7 * time.Millisecond}
	primary := errFields{Primary: "10.0.0.1:9094"}
	for _, c := range []struct {
		err     error
		f, want errFields // encoded, then decoded
		line    string
	}{
		{ErrBusy, busy, busy, `err EBUSY "chirp: server overloaded; retry after 7ms"`},
		{ErrBusy, errFields{}, errFields{}, `err EBUSY "chirp: server overloaded"`},
		{fmt.Errorf("%w (follower)", ErrNotPrimary), primary, primary,
			`err ENOTPRIMARY "chirp: not the primary replica (follower); primary is 10.0.0.1:9094"`},
		{ErrNotPrimary, errFields{}, errFields{}, `err ENOTPRIMARY "chirp: not the primary replica"`},
		// A field only its own row carries.
		{vfs.ErrPermission, errFields{RetryAfter: time.Second, Primary: "x"}, errFields{}, `err EPERM "permission denied"`},
	} {
		var l lineBuf
		appendErr(&l, c.err, c.f)
		if string(l.b) != c.line {
			t.Errorf("appendErr(%v, %+v) = %s, want %s", c.err, c.f, l.b, c.line)
			continue
		}
		parts, err := splitFields(string(l.b))
		if err != nil || len(parts) != 3 {
			t.Fatalf("%s: %v", l.b, err)
		}
		if re := remoteError(parts[1], parts[2]); re.errFields != c.want {
			t.Errorf("%s decodes fields %+v, want %+v", l.b, re.errFields, c.want)
		}
	}
	if re := remoteError("EBUSY", "chirp: server overloaded; retry after soon"); re.RetryAfter != 0 {
		t.Errorf("an unparsable hint decodes as %v, want 0", re.RetryAfter)
	}
}

// TestCommandTableRows checks each row is internally consistent.
func TestCommandTableRows(t *testing.T) {
	for i := range commandTable {
		c := &commandTable[i]
		if commandByName[c.name] != c || c.idx != i {
			t.Errorf("%s: not indexed at its own row (duplicate name?)", c.name)
		}
		if c.payloadMax > 0 && (c.payloadArg >= c.nargs || c.payloadMax > MaxPayload) {
			t.Errorf("%s: payload length in arg %d of %d, limit %d", c.name, c.payloadArg, c.nargs, c.payloadMax)
		}
		if c.has(fTokenable) && !c.has(fMutating) {
			t.Errorf("%s: tokenable but not mutating", c.name)
		}
		if c.has(fMutating) && c.has(fControl) {
			t.Errorf("%s: a mutating command cannot ride the exempt admission class", c.name)
		}
	}
}

// TestUnknownCommandsShareOneSeries: a peer that invents command names
// gets ENOSYS for each, and all of them are counted under one series —
// it used to mint a registry series, and a /metrics line, per name.
func TestUnknownCommandsShareOneSeries(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, _, _ := testServer(t)
		cl := adminClient(t, srv, ClientOptions{Window: win, MaxRetries: -1})
		if _, err := cl.Whoami(); err != nil {
			t.Fatal(err)
		}
		before := len(srv.Metrics().Snapshot().Counters)
		for i := 0; i < 1000; i++ {
			if _, err := cl.rpc(fmt.Sprintf("bogus-%d", i), "1"); !errors.Is(err, kernel.ErrNoSys) {
				t.Fatalf("bogus-%d = %v, want ENOSYS", i, err)
			}
		}
		snap := srv.Metrics().Snapshot()
		if grew := len(snap.Counters) - before; grew != 0 {
			t.Errorf("1000 unknown commands added %d counter series", grew)
		}
		if got := snap.Counters[obs.With(MetricRequests, "cmd", "unknown")]; got != 1000 {
			t.Errorf(`chirp_requests_total{cmd="unknown"} = %d, want 1000`, got)
		}
		if text, err := cl.Metrics(); err != nil || strings.Contains(text, "bogus") {
			t.Errorf("metrics exposition names a client-chosen command (err %v)", err)
		}
	})
}

// rawLine builds a request line from tokens already in wire form.
func rawLine(fields ...string) *lineBuf {
	l := newLine(fields[0])
	for _, f := range fields[1:] {
		l.str(f)
	}
	return l
}

// rpc performs one exchange with no payload phases, for tests poking raw
// commands.
func (cl *Client) rpc(fields ...string) ([]string, error) {
	rest, _, _, err := cl.do(wireCall{line: rawLine(fields...)})
	if err != nil {
		return nil, err
	}
	return splitFields(rest)
}

// rawCall sends one raw request on cl and returns the server's reply
// error, failing the test if the exchange cost a redial: the point of
// every caller is that the session survives.
func rawCall(t *testing.T, cl *Client, body []byte, fields ...string) *RemoteError {
	t.Helper()
	_, _, _, err := cl.do(wireCall{line: rawLine(fields...), sendBody: body})
	var re *RemoteError
	if err != nil && !errors.As(err, &re) {
		t.Fatalf("%v: transport failure %v, want a server reply", fields, err)
	}
	if _, werr := cl.Whoami(); werr != nil {
		t.Fatalf("%v left the wire misaligned: next whoami = %v", fields, werr)
	}
	if n := cl.LocalMetrics().Counter(MetricClientRedials).Value(); n != 0 {
		t.Fatalf("%v cost %d redials; the session should have survived", fields, n)
	}
	return re
}

// TestCommandTablePayloadLimits walks the command table: for every
// command that carries a request payload, a length one over its limit
// is refused EINVAL — the same way on first execution and, for
// tokenable commands, on a dedupe replay of the same token — at either
// window, and the frame's payload is consumed so the session's next
// request parses.
func TestCommandTablePayloadLimits(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, _, _ := testServer(t)
		cl := adminClient(t, srv, ClientOptions{Window: win, MaxRetries: -1})
		for i := range commandTable {
			c := &commandTable[i]
			if c.payloadMax == 0 {
				continue
			}
			over := c.payloadMax + 1
			fields := []string{c.name}
			for a := 0; a < c.nargs; a++ {
				fields = append(fields, "1")
			}
			fields[1+c.payloadArg] = strconv.Itoa(over)
			// A frame cannot carry more than MaxPayload, so past it the
			// line over-announces.
			body := make([]byte, over)
			if over > MaxPayload {
				body = body[:16]
			}
			if c.has(fTokenable) {
				fields = append([]string{"token", q(NewRequestToken())}, fields...)
			}
			first := rawCall(t, cl, body, fields...)
			if first == nil || first.Err != vfs.ErrInvalid {
				t.Fatalf("%s with a %d-byte payload = %v, want EINVAL", c.name, over, first)
			}
			if !c.has(fTokenable) {
				continue
			}
			replay := rawCall(t, cl, body, fields...)
			if replay == nil || replay.Error() != first.Error() {
				t.Errorf("%s replayed under its token = %v, first execution said %v", c.name, replay, first)
			}
		}
	})
}

// TestCommandTableArgCounts: a command sent without its arguments is
// refused EINVAL by the table check; no handler ever indexes past the
// arguments it was given.
func TestCommandTableArgCounts(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, _, _ := testServer(t)
		cl := adminClient(t, srv, ClientOptions{Window: win, MaxRetries: -1})
		for i := range commandTable {
			c := &commandTable[i]
			if c.nargs == 0 {
				continue
			}
			if re := rawCall(t, cl, nil, c.name); re == nil || re.Err != vfs.ErrInvalid {
				t.Errorf("bare %q = %v, want EINVAL", c.name, re)
			}
		}
	})
}

// TestRequestLatencyCoversEveryRequest: the server-side latency
// histogram observes untraced requests at either window, not only
// traced ones.
func TestRequestLatencyCoversEveryRequest(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, _, _ := testServer(t)
		cl := adminClient(t, srv, ClientOptions{Window: win})
		before := srv.metrics.requestLat.Count()
		const calls = 5
		for i := 0; i < calls; i++ {
			if _, err := cl.Stat("/"); err != nil {
				t.Fatal(err)
			}
		}
		// The histogram is observed once the reply is flushed, which the
		// client can race: wait for the last observation, then insist on
		// the exact count.
		waitFor(t, "the last latency observation", func() bool {
			return srv.metrics.requestLat.Count()-before >= calls
		})
		if got := srv.metrics.requestLat.Count() - before; got != calls {
			t.Fatalf("%s observed %d of %d untraced requests", MetricRequestLatency, got, calls)
		}
	})
}
