package chirp

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/vfs"
)

// TestErrnoTable checks the one errno table: names are unique, every
// sentinel encodes to its name and decodes back to itself (wrapped or
// not), names this binary does not know decode to EIO, and the classes
// the retry ladder acts on are where it expects them.
func TestErrnoTable(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range errnoTable {
		if seen[e.name] {
			t.Errorf("errno name %s appears twice", e.name)
		}
		seen[e.name] = true
		for _, err := range []error{e.err, fmt.Errorf("open /x: %w", e.err)} {
			if got := nameForError(err); got != e.name {
				t.Errorf("nameForError(%v) = %s, want %s", err, got, e.name)
			}
		}
		re := remoteError(e.name, "msg")
		if re.Err != e.err || !errors.Is(re, e.err) {
			t.Errorf("remoteError(%s) carries sentinel %v, want %v", e.name, re.Err, e.err)
		}
		if class, got := classOf(re); class != e.class || got != re {
			t.Errorf("classOf(%s) = %v, want %v", e.name, class, e.class)
		}
	}
	eio := remoteError("EIO", "")
	for _, name := range []string{"EFUTURE", ""} {
		if re := remoteError(name, "msg"); re.Err != eio.Err || re.class != classFinal || re.Name != name {
			t.Errorf("remoteError(%q) = %+v, want EIO's sentinel under the original name", name, re)
		}
	}
	if got := nameForError(errors.New("disk on fire")); got != "EIO" {
		t.Errorf("an unmapped error encodes as %s, want EIO", got)
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
	bothFramings(t, func(t *testing.T, proto int) {
		srv, _, _ := testServer(t)
		cl := adminClient(t, srv, ClientOptions{Protocol: proto, DisableRetries: true})
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
	r, _, _, err := cl.do(wireCall{line: rawLine(fields...)})
	return r, err
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
// tokenable commands, on a dedupe replay of the same token — in both
// framings, and the bytes that followed the line are consumed so the
// session's next request parses.
func TestCommandTablePayloadLimits(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		srv, _, _ := testServer(t)
		cl := adminClient(t, srv, ClientOptions{Protocol: proto, DisableRetries: true})
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
			// v1 sends exactly what the line announces. A v2 frame cannot
			// carry more than MaxPayload, so there the line over-announces.
			body := make([]byte, over)
			if proto == ProtocolV2 && over > MaxPayload {
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
	bothFramings(t, func(t *testing.T, proto int) {
		srv, _, _ := testServer(t)
		cl := adminClient(t, srv, ClientOptions{Protocol: proto, DisableRetries: true})
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
// histogram observes untraced requests on either framing, not only
// traced v2 ones.
func TestRequestLatencyCoversEveryRequest(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		srv, _, _ := testServer(t)
		cl := adminClient(t, srv, ClientOptions{Protocol: proto})
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
