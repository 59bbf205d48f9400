package vfs

// Journal support: a Journal attached with SetJournal receives one
// Mutation per successful state change — namespace edits, data writes,
// truncates, metadata changes — in a single total order. The durable
// store uses this to keep a write-ahead log whose replay reconstructs
// the file system exactly; nothing in the VFS itself depends on a
// journal being present.
//
// Ordering contract: while a journal is attached, every mutating
// operation holds the journal lock for its whole critical section
// (mutation plus record emission), so the journal sees mutations in
// exactly the order they took effect. The critical section contains no
// disk I/O: the durable store's RecordMutation only assigns an LSN and
// encodes the record into its commit queue; the group committer writes
// and fsyncs batches on its own goroutine, and durability waiters park
// on the store's Barrier outside the journal lock. Read paths stay
// untouched, and the journal costs nothing when none is attached (the
// common case: kernels and servers running without a durable state
// dir).
//
// Lock order: the journal lock is acquired before treeMu and before any
// inode lock, and RecordMutation is invoked while those inner locks may
// still be held, so implementations must not call back into the FS.

// MutOp identifies one journaled mutation kind. The values are stable:
// they are written into durable logs and must not be renumbered.
type MutOp uint8

const (
	MutMkdir    MutOp = 1  // Path, Mode, Owner, Path2 and Data (the file made with it, if any)
	MutCreate   MutOp = 2  // Path, Mode, Owner, Data (replaces an existing file's contents)
	MutWrite    MutOp = 3  // Path, Off, Data
	MutTruncate MutOp = 4  // Path, Size
	MutUnlink   MutOp = 5  // Path
	MutRmdir    MutOp = 6  // Path, Path2 (the file removed with it, if any)
	MutSymlink  MutOp = 7  // Path (link), Path2 (target), Owner
	MutLink     MutOp = 8  // Path (old), Path2 (new)
	MutRename   MutOp = 9  // Path (old), Path2 (new)
	MutChmod    MutOp = 10 // Path, Mode
	MutChown    MutOp = 11 // Path, Owner, Group
)

func (op MutOp) String() string {
	switch op {
	case MutMkdir:
		return "mkdir"
	case MutCreate:
		return "create"
	case MutWrite:
		return "write"
	case MutTruncate:
		return "truncate"
	case MutUnlink:
		return "unlink"
	case MutRmdir:
		return "rmdir"
	case MutSymlink:
		return "symlink"
	case MutLink:
		return "link"
	case MutRename:
		return "rename"
	case MutChmod:
		return "chmod"
	case MutChown:
		return "chown"
	default:
		return "unknown"
	}
}

// Mutation describes one successful state change. Only the fields
// relevant to Op are populated (see the MutOp constants). Data aliases
// the caller's buffer and is only valid for the duration of the
// RecordMutation call: a journal that retains it must copy.
type Mutation struct {
	Op    MutOp
	Path  string
	Path2 string
	Mode  uint32
	Owner string
	Group string
	Off   int64
	Size  int64
	Data  []byte

	// Trace is the request-tracing ID of the call that caused the
	// mutation, or zero when untraced. It is observability metadata,
	// not file-system state: durable logs do not persist it, and replay
	// ignores it. Journals may use it to attribute commit latency to
	// the originating request (see internal/durable's group commit).
	Trace uint64
}

// Journal receives every successful mutation, in commit order.
// RecordMutation is called with the journal lock held (and possibly inner FS locks); it must not call back into
// the FS and should return quickly. Errors are the journal's own
// affair: the VFS has already committed the mutation in memory by the
// time the record is emitted, so a journal that cannot persist it
// should surface that through its own health reporting (sticky errors,
// metrics), not by failing the file operation.
type Journal interface {
	RecordMutation(m Mutation)
}

// SetJournal attaches (or, with nil, detaches) the journal. It must be
// called before the file system is shared between goroutines — in
// practice, right after New or Load, before any server starts — so the
// unsynchronized journal field read in beginJournal is race-free.
func (fs *FS) SetJournal(j Journal) { fs.journal = j }

// Quiesce runs fn while the journal lock is held, so no journaled
// mutation can begin or commit during fn. The durable store uses this
// to cut snapshots at an exact log position: inside fn the tree and
// every file are stable with respect to journaled writers (readers
// proceed freely). fn must not perform journaled mutations.
func (fs *FS) Quiesce(fn func() error) error {
	fs.journalMu.Lock()
	defer fs.journalMu.Unlock()
	return fn()
}

// beginJournal enters the mutation critical section: a no-op without a
// journal (returning false), otherwise it acquires the journal lock.
// Mutators call it first thing: defer fs.endJournal(fs.beginJournal()).
func (fs *FS) beginJournal() bool {
	if fs.journal == nil {
		return false
	}
	fs.journalMu.Lock()
	return true
}

func (fs *FS) endJournal(held bool) {
	if held {
		fs.journalMu.Unlock()
	}
}

// record emits a mutation to the journal, if one is attached. Callers
// hold the journal lock (via beginJournal) and emit only after the
// mutation has succeeded.
func (fs *FS) record(m Mutation) {
	if fs.journal != nil {
		fs.journal.RecordMutation(m)
	}
}
