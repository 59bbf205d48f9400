// Package chirp implements the Chirp distributed storage system used to
// demonstrate identity boxing in a distributed setting: a personal file
// server any ordinary user can deploy, exporting file space through a
// Unix-like protocol protected by ACLs over high-level identities, plus
// the paper's remote "exec" extension that runs staged programs inside
// an identity box corresponding to the authenticated client.
//
// The wire protocol is line-oriented: one request line (paths are
// Go-quoted so they may contain spaces), optionally followed by a
// counted binary payload; one response line ("ok ..." or "err ENAME
// message"), optionally followed by a counted payload. Authentication
// (package auth) runs first on every connection.
package chirp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"identitybox/internal/admission"
	"identitybox/internal/durable"
	"identitybox/internal/kernel"
	"identitybox/internal/replica"
	"identitybox/internal/vfs"
)

// errClass says what a client may do after an error.
type errClass int

const (
	// classFinal: the server's answer; repeating the call cannot change it.
	classFinal errClass = iota
	// classRetrySafe: refused before anything executed, so every call —
	// idempotent or not — may be re-sent.
	classRetrySafe
	// classRedirect: refused by a replica that is not the primary; the
	// reply names the server to re-target (RemoteError.Primary).
	classRedirect
	// classTransient: no server answer at all (dial error, reset,
	// timeout, open breaker) — a candidate for retry or failover. No
	// wire errno has this class; classOf reports it for everything that
	// is not a RemoteError.
	classTransient
)

// errField names the one structured field a row's replies carry: its
// value ends the message, after "; " and the field's marker.
type errField uint8

const (
	fieldRetryAfter errField = iota + 1 // RemoteError.RetryAfter, "<N>ms"
	fieldPrimary                        // RemoteError.Primary, an address
)

const retryAfterMarker, primaryMarker = "retry after ", "primary is "

type errFields struct {
	RetryAfter time.Duration // EBUSY: back off at least this long (0: no hint)
	Primary    string        // ENOTPRIMARY: where writes go ("": unknown)
}

// errno is one row of the errno table.
type errno struct {
	name  string
	errs  []error // sentinels that encode to name; a reply decodes to the first
	class errClass
	field errField
}

// errnoTable is the one place an error's wire name, sentinels, class and
// field meet: appendErr encodes from it (first match wins), remoteError
// decodes through it, and the server counts replies per row. It lists
// every sentinel a handler can return (TestErrnoTable). EIO, last, is
// storage failure, a disk's own error included, and any unknown name.
var errnoTable = []errno{
	{name: "ENOENT", errs: []error{vfs.ErrNotExist}},
	{name: "EEXIST", errs: []error{vfs.ErrExist}},
	{name: "EPERM", errs: []error{vfs.ErrPermission}},
	{name: "EISDIR", errs: []error{vfs.ErrIsDir}},
	{name: "ENOTDIR", errs: []error{vfs.ErrNotDir}},
	{name: "ENOTEMPTY", errs: []error{vfs.ErrNotEmpty}},
	{name: "EINVAL", errs: []error{vfs.ErrInvalid}},
	{name: "ELOOP", errs: []error{vfs.ErrLoop}},
	{name: "EXDEV", errs: []error{vfs.ErrCrossDevice}},
	{name: "EBADF", errs: []error{kernel.ErrBadFD}},
	{name: "ESRCH", errs: []error{kernel.ErrSearch}},
	{name: "ENOSYS", errs: []error{kernel.ErrNoSys}},
	{name: "ENOTPRIMARY", errs: []error{ErrNotPrimary}, class: classRedirect, field: fieldPrimary},
	{name: "EDEADLINE", errs: []error{ErrDeadline, admission.ErrExpired}},
	{name: "EBUSY", errs: []error{ErrBusy}, class: classRetrySafe, field: fieldRetryAfter},
	{name: "EFBIG", errs: []error{vfs.ErrTooBig}},
	{name: "EIO", errs: []error{errors.New("input/output error"),
		replica.ErrPublisherClosed, durable.ErrWALClosed, durable.ErrTorn}},
}

var eio = len(errnoTable) - 1

// ErrNotPrimary means a mutating command reached a replica that does
// not hold the write lease (a follower, or a fenced former primary).
// The reply's RemoteError.Primary names the current primary when the
// server knows it, so a failover-aware client can re-target.
var ErrNotPrimary = errors.New("chirp: not the primary replica")

// ErrDeadline means the request's deadline budget was exhausted before
// the server finished it; shed at the admit or dispatch hop the work
// never executed, shed at the durability barrier it executed but was
// never acknowledged (the same semantics as a client-side timeout). A
// waitlsn whose horizon does not arrive in time answers it too.
var ErrDeadline = errors.New("chirp: deadline budget exhausted")

// ErrBusy means the server's admit queue rejected the request before
// any of it executed; the reply's RemoteError.RetryAfter is the
// server's backoff hint. EBUSY is always safe to retry, whatever the
// command, because nothing ran.
var ErrBusy = errors.New("chirp: server overloaded")

// rowFor finds err's row, by index: the first that lists it, or EIO's.
func rowFor(err error) int {
	is := func(s error) bool { return errors.Is(err, s) }
	if i := slices.IndexFunc(errnoTable, func(e errno) bool { return slices.ContainsFunc(e.errs, is) }); i >= 0 {
		return i
	}
	return eio
}

// nameForError picks the wire name for an error.
func nameForError(err error) string { return errnoTable[rowFor(err)].name }

// appendErr encodes err's reply onto l — "err", the row's name and the
// quoted message: err's text, then the row's field from f when set —
// and returns the row's index.
func appendErr(l *lineBuf, err error, f errFields) int {
	i := rowFor(err)
	row, msg := &errnoTable[i], err.Error()
	switch {
	case row.field == fieldRetryAfter && f.RetryAfter > 0:
		msg += "; " + retryAfterMarker + strconv.FormatInt(f.RetryAfter.Milliseconds(), 10) + "ms"
	case row.field == fieldPrimary && f.Primary != "":
		msg += "; " + primaryMarker + f.Primary
	}
	l.start("err").str(row.name).quoted(msg)
	return i
}

// RemoteError is an error reported by a Chirp server.
type RemoteError struct {
	Name      string // wire errno name
	Message   string
	Err       error // mapped sentinel
	errFields       // RetryAfter (EBUSY) and Primary (ENOTPRIMARY), when the reply carried them
	class     errClass
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("chirp: %s: %s", e.Name, e.Message)
}

// Unwrap lets errors.Is match the sentinel (e.g. vfs.ErrPermission).
func (e *RemoteError) Unwrap() error { return e.Err }

// remoteError decodes an error reply, and the field its row carries;
// names this binary does not know map to EIO's sentinel and class.
func remoteError(name, msg string) *RemoteError {
	row := &errnoTable[eio]
	if i := slices.IndexFunc(errnoTable, func(e errno) bool { return e.name == name }); i >= 0 {
		row = &errnoTable[i]
	}
	re := &RemoteError{Name: name, Message: msg, Err: row.errs[0], class: row.class}
	switch row.field {
	case fieldRetryAfter:
		if i := strings.LastIndex(msg, retryAfterMarker); i >= 0 {
			re.RetryAfter, _ = time.ParseDuration(msg[i+len(retryAfterMarker):]) // 0 unless it parses
		}
	case fieldPrimary:
		if i := strings.LastIndex(msg, primaryMarker); i >= 0 {
			re.Primary = msg[i+len(primaryMarker):]
		}
	}
	return re
}

// classOf reports an error's class, and the server's reply when the
// error is one.
func classOf(err error) (errClass, *RemoteError) {
	var re *RemoteError
	if errors.As(err, &re) {
		return re.class, re
	}
	return classTransient, nil
}

// cmdFlags are the per-command facts every layer reads from the one
// command table.
type cmdFlags uint8

const (
	// fMutating: can change durable state — refused on a non-primary
	// replica, and its reply waits for the durability barrier. open is
	// included because O_CREAT/O_TRUNC create or truncate (readRequest
	// clears it per request for a read-only open), exec because staged
	// programs write output files.
	fMutating cmdFlags = 1 << iota
	// fTokenable: may ride inside `token <id>` — a non-idempotent
	// mutation with a line-only reply. Session-state commands (open,
	// close) are excluded — a replayed descriptor number would point
	// into a different session — as are payload-reply commands, whose
	// body the dedupe table does not capture.
	fTokenable
	// fControl: admitted on the exempt class — liveness probes,
	// observability and the replication control plane. Shedding these
	// under overload would make saturation look like failure (a lease
	// heartbeat timing out triggers failover, a shed replsub stalls a
	// follower), so they bypass the admit queue and the fair scheduler.
	fControl
	// fIdempotent: the client re-sends it transparently after a
	// transport fault. Without it (descriptor-bound calls, rename, link,
	// symlink, untokened exec) the fault surfaces ErrRetryNotSafe: the
	// request may or may not have been applied.
	fIdempotent
	// fVarArgs: nargs is a minimum, not an exact count.
	fVarArgs
)

// cmdSpec is one row of the command table.
type cmdSpec struct {
	name  string
	nargs int // argument count (exact, or the minimum with fVarArgs)
	flags cmdFlags
	// A command with payloadMax > 0 carries a counted request payload
	// whose length is announced by argument payloadArg and may not
	// exceed payloadMax.
	payloadArg int
	payloadMax int
	idx        int // position in commandTable (per-server counter slot)
}

func (c *cmdSpec) has(f cmdFlags) bool { return c != nil && c.flags&f != 0 }

// argsOK reports whether args has the shape the row declares.
func (c *cmdSpec) argsOK(args []string) bool {
	return len(args) == c.nargs || (c.flags&fVarArgs != 0 && len(args) > c.nargs)
}

// payloadLen reports the payload length a request line announces, when
// the line is well formed enough to announce one.
func (c *cmdSpec) payloadLen(args []string) (n int, ok bool) {
	if c == nil || c.payloadMax == 0 || !c.argsOK(args) {
		return 0, false
	}
	n, err := strconv.Atoi(args[c.payloadArg])
	return n, err == nil && n >= 0
}

// shapeOK checks a request's shape against its row — argument count,
// announced payload length within the limit and equal to what the
// framing delivered; a bad one is answered EINVAL. An unknown command
// passes: the handler answers ENOSYS.
func (c *cmdSpec) shapeOK(args []string, payload []byte) bool {
	if c == nil {
		return true
	}
	if !c.argsOK(args) {
		return false
	}
	if c.payloadMax == 0 {
		return true
	}
	n, ok := c.payloadLen(args)
	return ok && n <= c.payloadMax && n == len(payload)
}

const aclPayloadMax = 1 << 20

// commandTable declares every command once. Payload reading, admission
// class, role gating, the durability barrier, dedupe eligibility and the
// client's retry class all read it; nothing else knows a command's shape.
var commandTable = []cmdSpec{
	{name: "whoami", flags: fControl | fIdempotent | fVarArgs},
	{name: "stats", flags: fControl | fIdempotent | fVarArgs},
	{name: "metrics", flags: fControl | fIdempotent | fVarArgs},
	{name: "trace", nargs: 1, flags: fControl | fIdempotent},
	{name: "waitlsn", nargs: 2, flags: fControl | fIdempotent},
	{name: "version", flags: fControl | fVarArgs},
	// `token <id> <cmd> ...` wraps a tokenable command; it is idempotent
	// because the server replays instead of re-executing.
	{name: "token", nargs: 2, flags: fIdempotent | fVarArgs},
	{name: "replsub", nargs: 1, flags: fControl},
	{name: "replack", nargs: 1, flags: fControl},
	{name: "assert", nargs: 1, flags: fControl | fIdempotent, payloadArg: 0, payloadMax: aclPayloadMax},
	{name: "open", nargs: 3, flags: fMutating | fIdempotent},
	{name: "close", nargs: 1},
	{name: "pread", nargs: 3},
	{name: "pwrite", nargs: 3, flags: fMutating | fTokenable, payloadArg: 2, payloadMax: MaxPayload},
	{name: "fstat", nargs: 1},
	{name: "stat", nargs: 1, flags: fIdempotent},
	{name: "lstat", nargs: 1, flags: fIdempotent},
	{name: "getdir", nargs: 1, flags: fIdempotent},
	{name: "readlink", nargs: 1, flags: fIdempotent},
	{name: "getacl", nargs: 1, flags: fIdempotent},
	{name: "mkdir", nargs: 2, flags: fMutating | fTokenable | fIdempotent},
	{name: "rmdir", nargs: 1, flags: fMutating | fTokenable | fIdempotent},
	{name: "unlink", nargs: 1, flags: fMutating | fTokenable | fIdempotent},
	{name: "truncate", nargs: 2, flags: fMutating | fTokenable | fIdempotent},
	{name: "setacl", nargs: 2, flags: fMutating | fTokenable | fIdempotent, payloadArg: 1, payloadMax: aclPayloadMax},
	{name: "rename", nargs: 2, flags: fMutating | fTokenable},
	{name: "link", nargs: 2, flags: fMutating | fTokenable},
	{name: "symlink", nargs: 2, flags: fMutating | fTokenable},
	{name: "exec", nargs: 2, flags: fMutating | fTokenable | fVarArgs},
	// Whole-file staging: putfile writes a file in one step, getfile
	// returns one in one reply. Each makes exactly the check open makes.
	{name: "putfile", nargs: 3, flags: fMutating | fTokenable | fIdempotent, payloadArg: 2, payloadMax: MaxPayload},
	{name: "getfile", nargs: 1, flags: fIdempotent},
}

var commandByName = make(map[string]*cmdSpec, len(commandTable))

func init() {
	for i := range commandTable {
		commandTable[i].idx = i
		commandByName[commandTable[i].name] = &commandTable[i]
	}
}

// codec frames protocol lines and counted payloads over a transport.
// Its bufio halves and scratch come from process-wide pools; call
// release when the transport is done with to recycle them. The read half
// (r, rhdr, scratch) belongs to the connection's reader, and the write
// half (w, whdr) to whoever holds its frameWriter's lock, so the codec
// itself never locks.
type codec struct {
	r       *bufio.Reader
	w       *bufio.Writer
	scratch *payloadScratch
	// Frame headers are staged here rather than on the stack: a stack
	// array handed to bufio escapes through its io.Reader/io.Writer.
	rhdr, whdr [frameHeaderSize]byte
}

func newCodec(rw io.ReadWriter) *codec {
	br := brPool.Get().(*bufio.Reader)
	br.Reset(rw)
	bw := bwPool.Get().(*bufio.Writer)
	bw.Reset(rw)
	return &codec{r: br, w: bw, scratch: scratchPool.Get().(*payloadScratch)}
}

// release returns the codec's pooled buffers. The codec must not be
// used afterwards; releasing twice is a no-op.
func (c *codec) release() {
	if c.r != nil {
		c.r.Reset(nil)
		brPool.Put(c.r)
		c.r = nil
	}
	if c.w != nil {
		c.w.Reset(nil)
		bwPool.Put(c.w)
		c.w = nil
	}
	if c.scratch != nil {
		scratchPool.Put(c.scratch)
		c.scratch = nil
	}
}

// lineBuf builds one protocol line in place: space-separated tokens
// appended into a buffer its owner reuses from line to line, so encoding
// allocates nothing. A line is valid until its owner starts the next
// one; whoever keeps it longer copies it (DESIGN.md §6 has the table of
// owners).
type lineBuf struct{ b []byte }

// maxPooledLine bounds what a reused line buffer may pin: one grown past
// it (a big getdir) is dropped at its next use instead of kept.
const maxPooledLine = 4 << 10

// start begins a new line with a bare token.
func (l *lineBuf) start(tok string) *lineBuf {
	if cap(l.b) > maxPooledLine {
		l.b = nil
	}
	l.b = append(l.b[:0], tok...)
	return l
}

// str appends a token verbatim: a keyword, or a field already in wire form.
func (l *lineBuf) str(tok string) *lineBuf {
	l.b = append(append(l.b, ' '), tok...)
	return l
}

func (l *lineBuf) int(v int64) *lineBuf {
	l.b = strconv.AppendInt(append(l.b, ' '), v, 10)
	return l
}

func (l *lineBuf) uint(v uint64) *lineBuf {
	l.b = strconv.AppendUint(append(l.b, ' '), v, 10)
	return l
}

func (l *lineBuf) oct(v uint32) *lineBuf {
	l.b = strconv.AppendUint(append(l.b, ' '), uint64(v), 8)
	return l
}

// quoted appends a Go-quoted field: a path, a name, a message.
func (l *lineBuf) quoted(s string) *lineBuf {
	l.b = strconv.AppendQuote(append(l.b, ' '), s)
	return l
}

// stat appends a stat in wire form (parseStat reads it back).
func (l *lineBuf) stat(st vfs.Stat) *lineBuf {
	return l.uint(st.Ino).int(int64(st.Type)).oct(st.Mode).quoted(st.Owner).quoted(st.Group).
		int(int64(st.Nlink)).int(st.Size).int(st.Mtime)
}

// cmd is the line's first token.
func (l *lineBuf) cmd() []byte {
	if i := bytes.IndexByte(l.b, ' '); i >= 0 {
		return l.b[:i]
	}
	return l.b
}

// checkLine refuses line bytes carrying a raw newline, which would end
// the version exchange's plain line early and is never legitimate in a
// frame either: fields that may hold one are quoted.
func checkLine(parts ...[]byte) error {
	for _, p := range parts {
		if bytes.ContainsAny(p, "\n\r") {
			return fmt.Errorf("chirp: embedded newline in %q", p)
		}
	}
	return nil
}

// writeLine writes and flushes one plain protocol line, as the version
// exchange sends them.
func (c *codec) writeLine(line []byte) error {
	if err := checkLine(line); err != nil {
		return err
	}
	if _, err := c.w.Write(line); err != nil {
		return err
	}
	if err := c.w.WriteByte('\n'); err != nil {
		return err
	}
	return c.w.Flush()
}

// errLineTooLong ends a session whose peer sends a plain line longer
// than MaxLine, the bound a frame header enforces on its line.
var errLineTooLong = fmt.Errorf("chirp: protocol error: line longer than %d bytes", MaxLine)

// readLine reads one plain line without its terminator. A line that fits
// the reader's buffer is returned in place; a longer one is gathered in
// the codec's scratch (readLongLine). Either way the bytes are valid
// only until the next read on this codec.
func (c *codec) readLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		line, err = c.readLongLine(line)
	}
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// readLongLine finishes, in the codec's scratch, a line whose first
// bufferful, head, held no newline. It takes each read's bytes as they
// arrive, so a line past MaxLine is refused once MaxLine bytes are held
// — not when a newline, or another bufferful, comes.
func (c *codec) readLongLine(head []byte) ([]byte, error) {
	acc := append(c.scratch.buf[:0], head...)
	for {
		if _, err := c.r.Peek(1); err != nil {
			return nil, err
		}
		buf, _ := c.r.Peek(c.r.Buffered())
		n := bytes.IndexByte(buf, '\n')
		if n < 0 {
			n = len(buf)
		}
		if len(acc)+n > MaxLine {
			return nil, errLineTooLong
		}
		if n < len(buf) {
			n++ // the newline ends the line
		}
		acc = append(acc, buf[:n]...)
		c.r.Discard(n) // buffered bytes: cannot fail
		if acc[len(acc)-1] == '\n' {
			return acc, nil
		}
	}
}

// flush pushes everything queued to the transport.
func (c *codec) flush() error { return c.w.Flush() }

// scratchBuf returns an n-byte slice of the codec's reusable payload
// scratch, growing it if needed. The slice is only valid until the next
// scratchBuf/readPayload call on this codec.
func (c *codec) scratchBuf(n int) []byte { return c.scratch.bytes(n) }

// readPayload receives exactly n payload bytes into the codec's scratch
// buffer. A length outside [0, MaxPayload] is a protocol error: the
// peer is malformed or hostile, and nothing is read or allocated. The
// returned slice is only valid until the next readPayload/scratchBuf
// call on this codec — callers that retain the bytes past the current
// exchange must copy them.
func (c *codec) readPayload(n int) ([]byte, error) {
	if err := checkPayloadLen(n); err != nil {
		return nil, err
	}
	buf := c.scratchBuf(n)
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// checkPayloadLen refuses a wire-supplied payload length outside
// [0, MaxPayload] before anything is read or allocated for it.
func checkPayloadLen(n int) error {
	if n < 0 || n > MaxPayload {
		return fmt.Errorf("chirp: protocol error: payload length %d outside [0, %d]", n, MaxPayload)
	}
	return nil
}

// readPayloadInto receives exactly len(dst) payload bytes directly into
// the caller's buffer, bypassing the scratch.
func (c *codec) readPayloadInto(dst []byte) error {
	_, err := io.ReadFull(c.r, dst)
	return err
}

// q quotes a path for the wire.
func q(path string) string { return strconv.Quote(path) }

// scanToken finds the token at or after line[i]: line[start:end], empty
// once the line is spent. A token that opens with a quote runs to its
// closing quote (escapes honoured); any other runs to the next space.
func scanToken(line string, i int) (start, end int, err error) {
	for i < len(line) && line[i] == ' ' {
		i++
	}
	if i == len(line) || line[i] != '"' {
		if j := strings.IndexByte(line[i:], ' '); j >= 0 {
			return i, i + j, nil
		}
		return i, len(line), nil
	}
	for j := i + 1; j < len(line); j++ {
		switch line[j] {
		case '\\':
			j++
		case '"':
			return i, j + 1, nil
		}
	}
	return 0, 0, fmt.Errorf("chirp: unterminated quote in %q", line)
}

// splitFields tokenizes a protocol line into a fresh slice, honoring
// Go-quoted fields.
func splitFields(line string) ([]string, error) { return appendFields(nil, line, true) }

// appendFields appends the tokens of a protocol line to dst — unquoted,
// or raw exactly as they sit on the wire — and returns the extended
// slice. Tokens are substrings of line (unquoting a field without
// escapes allocates nothing), so growing dst is the only allocation: a
// caller that passes a reused or stack array splits a line for free.
// On a quoting error dst comes back as it was passed; an unterminated
// quote anywhere outranks a bad escape earlier in the line.
func appendFields(dst []string, line string, unquote bool) ([]string, error) {
	orig := dst
	var bad error
	for i := 0; ; {
		start, end, err := scanToken(line, i)
		if err != nil {
			return orig, err
		}
		if start == end {
			break
		}
		tok := line[start:end]
		i = end
		if unquote && tok[0] == '"' && bad == nil {
			if tok, err = strconv.Unquote(tok); err != nil {
				bad = fmt.Errorf("chirp: bad quoting in %q: %v", line, err)
			}
		}
		dst = append(dst, tok)
	}
	if bad != nil {
		return orig, bad
	}
	return dst, nil
}

// parseStat deserializes lineBuf.stat output: a stat reply's line
// after "ok". Owner and group are substrings of it.
func parseStat(rest string) (vfs.Stat, error) {
	var a [8]string
	fields, err := appendFields(a[:0], rest, true)
	if err != nil {
		return vfs.Stat{}, err
	}
	if len(fields) != 8 {
		return vfs.Stat{}, fmt.Errorf("chirp: bad stat reply (%d fields)", len(fields))
	}
	var st vfs.Stat
	if st.Ino, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
		return st, err
	}
	t, err := strconv.Atoi(fields[1])
	if err != nil {
		return st, err
	}
	st.Type = vfs.FileType(t)
	mode, err := strconv.ParseUint(fields[2], 8, 32)
	if err != nil {
		return st, err
	}
	st.Mode = uint32(mode)
	st.Owner = fields[3]
	st.Group = fields[4]
	if st.Nlink, err = strconv.Atoi(fields[5]); err != nil {
		return st, err
	}
	if st.Size, err = strconv.ParseInt(fields[6], 10, 64); err != nil {
		return st, err
	}
	if st.Mtime, err = strconv.ParseInt(fields[7], 10, 64); err != nil {
		return st, err
	}
	return st, nil
}
