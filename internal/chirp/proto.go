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
	"strconv"
	"strings"
	"time"

	"identitybox/internal/kernel"
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
	// message names the server to re-target (PrimaryFromError).
	classRedirect
	// classTransient: no server answer at all (dial error, reset,
	// timeout, open breaker) — a candidate for retry or failover. No
	// wire errno has this class; classOf reports it for everything that
	// is not a RemoteError.
	classTransient
)

// errnoTable is the one place wire errno names, the sentinels they map
// to, and the client's reaction to them meet: nameForError encodes from
// it, remoteError decodes through it, and the retry ladder acts on the
// class. Order matters only to nameForError (first match wins); EIO,
// the catch-all, has a sentinel nothing else wraps.
var errnoTable = []struct {
	name  string
	err   error
	class errClass
}{
	{"ENOENT", vfs.ErrNotExist, classFinal},
	{"EEXIST", vfs.ErrExist, classFinal},
	{"EPERM", vfs.ErrPermission, classFinal},
	{"EISDIR", vfs.ErrIsDir, classFinal},
	{"ENOTDIR", vfs.ErrNotDir, classFinal},
	{"ENOTEMPTY", vfs.ErrNotEmpty, classFinal},
	{"EINVAL", vfs.ErrInvalid, classFinal},
	{"ELOOP", vfs.ErrLoop, classFinal},
	{"EXDEV", vfs.ErrCrossDevice, classFinal},
	{"EBADF", kernel.ErrBadFD, classFinal},
	{"ESRCH", kernel.ErrSearch, classFinal},
	{"ENOSYS", kernel.ErrNoSys, classFinal},
	{"ENOTPRIMARY", ErrNotPrimary, classRedirect},
	{"EDEADLINE", ErrDeadline, classFinal},
	{"EBUSY", ErrBusy, classRetrySafe},
	{"EIO", errors.New("input/output error"), classFinal},
}

// ErrNotPrimary means a mutating command reached a replica that does
// not hold the write lease (a follower, or a fenced former primary).
// The RemoteError message names the current primary's address when the
// server knows it, so a failover-aware client can re-target.
var ErrNotPrimary = errors.New("chirp: not the primary replica")

// ErrDeadline means the request's deadline budget was exhausted before
// the server finished it; shed at the admit or dispatch hop the work
// never executed, shed at the durability barrier it executed but was
// never acknowledged (the same semantics as a client-side timeout).
var ErrDeadline = errors.New("chirp: deadline budget exhausted")

// ErrBusy means the server's admit queue rejected the request before
// any of it executed. The RemoteError message carries a "retry after
// <N>ms" hint; RetryAfterFromError extracts it. EBUSY is always safe
// to retry, whatever the command, because nothing ran.
var ErrBusy = errors.New("chirp: server overloaded")

// retryAfterMarker introduces the backoff hint in an EBUSY message.
const retryAfterMarker = "retry after "

// RetryAfterFromError extracts the server's retry-after hint from an
// EBUSY reply, or 0 when the error carries none.
func RetryAfterFromError(err error) time.Duration {
	var re *RemoteError
	if !errors.As(err, &re) || re.Err != ErrBusy {
		return 0
	}
	i := strings.LastIndex(re.Message, retryAfterMarker)
	if i < 0 {
		return 0
	}
	rest := strings.TrimSuffix(re.Message[i+len(retryAfterMarker):], "ms")
	ms, perr := strconv.ParseInt(rest, 10, 64)
	if perr != nil || ms < 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// nameForError picks the wire name for an error.
func nameForError(err error) string {
	for _, e := range errnoTable {
		if errors.Is(err, e.err) {
			return e.name
		}
	}
	return "EIO"
}

// RemoteError is an error reported by a Chirp server.
type RemoteError struct {
	Name    string // wire errno name
	Message string
	Err     error // mapped sentinel
	class   errClass
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("chirp: %s: %s", e.Name, e.Message)
}

// Unwrap lets errors.Is match the sentinel (e.g. vfs.ErrPermission).
func (e *RemoteError) Unwrap() error { return e.Err }

// remoteError decodes an error reply; names this binary does not know
// map to EIO's sentinel and class.
func remoteError(name, msg string) *RemoteError {
	entry := errnoTable[len(errnoTable)-1]
	for _, e := range errnoTable {
		if e.name == name {
			entry = e
			break
		}
	}
	return &RemoteError{Name: name, Message: msg, Err: entry.err, class: entry.class}
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
	// included because O_CREAT/O_TRUNC create or truncate, exec because
	// staged programs write output files.
	fMutating cmdFlags = 1 << iota
	// fTokenable: may ride inside `token <id>` — a non-idempotent
	// mutation with a line-only reply. Session-state commands (open,
	// close) are excluded — a replayed descriptor number would point
	// into a different session — as are payload-reply commands, whose
	// body the dedupe table does not capture.
	fTokenable
	// fOrdered: runs on the session's single ordered lane, preserving
	// submission order where operations can conflict — descriptor-table
	// changes, namespace mutations, ACL and grant changes. Everything
	// else (reads, stats, and pwrite, whose offsets the client already
	// owns) runs on the concurrent pool, so a slow transfer cannot
	// head-of-line block metadata traffic.
	fOrdered
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
// the line is well formed enough to announce one. The v1 framing reads
// (or, past payloadMax, discards) exactly that many bytes after the
// line; a malformed line announces nothing and nothing is consumed.
func (c *cmdSpec) payloadLen(args []string) (n int, ok bool) {
	if c == nil || c.payloadMax == 0 || !c.argsOK(args) {
		return 0, false
	}
	n, err := strconv.Atoi(args[c.payloadArg])
	return n, err == nil && n >= 0
}

// refusal checks a request's shape against its row — argument count,
// announced payload length within the limit and equal to what the
// framing delivered — and returns the EINVAL message for a bad one.
func (c *cmdSpec) refusal(args []string, payload []byte) string {
	if c == nil {
		return "" // unknown command: the handler answers ENOSYS
	}
	if !c.argsOK(args) {
		return fmt.Sprintf("%s wants %d args", c.name, c.nargs)
	}
	if c.payloadMax == 0 {
		return ""
	}
	if n, ok := c.payloadLen(args); !ok || n > c.payloadMax {
		return c.name + ": bad payload length"
	} else if n != len(payload) {
		return c.name + ": payload length mismatch"
	}
	return ""
}

const aclPayloadMax = 1 << 20

// commandTable declares every command once. Server lane routing,
// payload reading, admission class, role gating, the durability
// barrier, dedupe eligibility and the client's retry class all read it;
// nothing else knows a command's shape.
var commandTable = []cmdSpec{
	{name: "whoami", flags: fControl | fIdempotent | fVarArgs},
	{name: "stats", flags: fControl | fIdempotent | fVarArgs},
	{name: "metrics", flags: fControl | fIdempotent | fVarArgs},
	{name: "trace", nargs: 1, flags: fControl | fIdempotent},
	{name: "waitlsn", nargs: 2, flags: fControl | fIdempotent},
	{name: "version", flags: fControl | fVarArgs},
	// `token <id> <cmd> ...` wraps a tokenable command; it is ordered so
	// the dedupe lookup and store cannot race a concurrent duplicate, and
	// idempotent because the server replays instead of re-executing.
	{name: "token", nargs: 2, flags: fOrdered | fIdempotent | fVarArgs},
	{name: "replsub", nargs: 1, flags: fControl | fOrdered}, // registration must not race itself
	{name: "replack", nargs: 1, flags: fControl},
	{name: "assert", nargs: 1, flags: fControl | fOrdered | fIdempotent, payloadArg: 0, payloadMax: aclPayloadMax},
	{name: "open", nargs: 3, flags: fMutating | fOrdered | fIdempotent},
	{name: "close", nargs: 1, flags: fOrdered},
	{name: "pread", nargs: 3},
	{name: "pwrite", nargs: 3, flags: fMutating | fTokenable, payloadArg: 2, payloadMax: MaxPayload},
	{name: "fstat", nargs: 1},
	{name: "stat", nargs: 1, flags: fIdempotent},
	{name: "lstat", nargs: 1, flags: fIdempotent},
	{name: "getdir", nargs: 1, flags: fIdempotent},
	{name: "readlink", nargs: 1, flags: fIdempotent},
	{name: "getacl", nargs: 1, flags: fIdempotent},
	{name: "mkdir", nargs: 2, flags: fMutating | fTokenable | fOrdered | fIdempotent},
	{name: "rmdir", nargs: 1, flags: fMutating | fTokenable | fOrdered | fIdempotent},
	{name: "unlink", nargs: 1, flags: fMutating | fTokenable | fOrdered | fIdempotent},
	{name: "truncate", nargs: 2, flags: fMutating | fTokenable | fOrdered | fIdempotent},
	{name: "setacl", nargs: 2, flags: fMutating | fTokenable | fOrdered | fIdempotent, payloadArg: 1, payloadMax: aclPayloadMax},
	{name: "rename", nargs: 2, flags: fMutating | fTokenable | fOrdered},
	{name: "link", nargs: 2, flags: fMutating | fTokenable | fOrdered},
	{name: "symlink", nargs: 2, flags: fMutating | fTokenable | fOrdered},
	{name: "exec", nargs: 2, flags: fMutating | fTokenable | fOrdered | fVarArgs},
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
// (r, rhdr, scratch) and the write half (w, whdr) each belong to one
// goroutine at a time — the session loop and whoever holds its write
// mutex, or the client's reader and writer loops — so neither locks.
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
// one; whoever keeps it longer copies it (DESIGN.md §16 has the table of
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

// checkLine refuses line bytes carrying a raw newline, which would end a
// v1 line early and is never legitimate: fields that may hold one are
// quoted.
func checkLine(parts ...[]byte) error {
	for _, p := range parts {
		if bytes.ContainsAny(p, "\n\r") {
			return fmt.Errorf("chirp: embedded newline in %q", p)
		}
	}
	return nil
}

// queueLine buffers a protocol line without flushing, so a pipelining
// caller can push several exchanges into one wire write.
func (c *codec) queueLine(line []byte) error {
	if err := checkLine(line); err != nil {
		return err
	}
	if _, err := c.w.Write(line); err != nil {
		return err
	}
	return c.w.WriteByte('\n')
}

func (c *codec) writeLine(line []byte) error {
	if err := c.queueLine(line); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *codec) readLine() (string, error) {
	s, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(s, "\r\n"), nil
}

// queueMessage buffers one request or reply — a line (the client's
// per-attempt prefix ahead of it, if any) plus optional counted payload —
// in either framing: a tagged frame, or the v1 line followed by its
// payload (the tag is implicit there, and v1 negotiates no prefix).
func (c *codec) queueMessage(framed bool, tag uint64, prefix, line, payload []byte) error {
	if framed {
		return c.queueFrame(tag, prefix, line, payload)
	}
	if err := c.queueLine(line); err != nil || payload == nil {
		return err
	}
	_, err := c.w.Write(payload)
	return err
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
	if n < 0 || n > MaxPayload {
		return nil, fmt.Errorf("chirp: protocol error: payload length %d outside [0, %d]", n, MaxPayload)
	}
	buf := c.scratchBuf(n)
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return nil, err
	}
	return buf, nil
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

// splitFields tokenizes a protocol line, honoring Go-quoted fields.
func splitFields(line string) ([]string, error) { return tokenize(line, true) }

// tokenize splits a line into its tokens — unquoted, or raw exactly as
// they sit on the wire — counting them first so the one slice it
// allocates is exactly sized (unquoting a field without escapes
// allocates nothing: the field is a substring of the line).
func tokenize(line string, unquote bool) ([]string, error) {
	n := 0
	for i := 0; ; n++ {
		start, end, err := scanToken(line, i)
		if err != nil {
			return nil, err
		}
		if start == end {
			break
		}
		i = end
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]string, n)
	for k, i := 0, 0; k < n; k++ {
		start, end, _ := scanToken(line, i)
		out[k], i = line[start:end], end
		if unquote && line[start] == '"' {
			tok, err := strconv.Unquote(out[k])
			if err != nil {
				return nil, fmt.Errorf("chirp: bad quoting in %q: %v", line, err)
			}
			out[k] = tok
		}
	}
	return out, nil
}

// parseStat deserializes lineBuf.stat output.
func parseStat(fields []string) (vfs.Stat, error) {
	if len(fields) != 8 {
		return vfs.Stat{}, fmt.Errorf("chirp: bad stat reply (%d fields)", len(fields))
	}
	var st vfs.Stat
	var err error
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
