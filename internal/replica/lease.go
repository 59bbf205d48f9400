package replica

import (
	"errors"
	"fmt"
	"net"
	"os"
	"time"
)

// The lease protocol is three UDP datagrams on the catalog's heartbeat
// socket, each written and read with one format below:
//
//	claim:  lease <name> <addr> <lsn> <epoch>
//	grant:  grant <epoch> <ttlms>
//	deny:   deny <epoch> <holder>
//
// Replies carry no name — each claim rides its own UDP exchange, so
// the socket correlates them. Claim names and addresses are Go-quoted
// like every other catalog string; the deny holder is a bare host:port.
// The catalog decides with LeaseTable, the rule of Gray and Cheriton
// ("Leases", SOSP 1989) as a function of the table, the claim and the
// time, and a node folds each answer with leaseView.fold.
const (
	claimFormat = "lease %q %q %d %d\n"
	grantFormat = "grant %d %d\n"
	denyFormat  = "deny %d %s\n"
)

// ErrLeaseTimeout means no grant or deny arrived within the claim
// deadline — the catalog is unreachable or still electing.
var ErrLeaseTimeout = errors.New("replica: lease claim timed out")

// Claim is one claim datagram: the set's name, the claimant's
// advertised address, its applied LSN and the epoch it knows.
type Claim struct {
	Name  string
	Addr  string
	LSN   uint64
	Epoch uint64
}

// ParseClaim decodes a claim datagram.
func ParseClaim(datagram string) (c Claim, err error) {
	if _, err = fmt.Sscanf(datagram, claimFormat, &c.Name, &c.Addr, &c.LSN, &c.Epoch); err != nil {
		return Claim{}, fmt.Errorf("replica: malformed lease claim %q: %v", datagram, err)
	}
	return c, nil
}

// LeaseResult is the catalog's answer to one claim.
type LeaseResult struct {
	Granted bool
	Epoch   uint64        // granted term, or the term that fences us
	TTL     time.Duration // grant only: how long the lease runs
	Holder  string        // deny only: who holds the lease
}

// parseLeaseReply decodes a grant or deny datagram.
func parseLeaseReply(line string) (r LeaseResult, err error) {
	var ms int64
	if _, err = fmt.Sscanf(line, grantFormat, &r.Epoch, &ms); err == nil && ms >= 0 {
		return LeaseResult{Granted: true, Epoch: r.Epoch, TTL: time.Duration(ms) * time.Millisecond}, nil
	}
	if _, err = fmt.Sscanf(line, denyFormat, &r.Epoch, &r.Holder); err == nil {
		return r, nil
	}
	return LeaseResult{}, fmt.Errorf("replica: malformed lease reply %q", line)
}

// LeaseClient claims and renews one named lease with a catalog over
// UDP. It is stateless per call; the node drives the cadence.
type LeaseClient struct {
	CatalogAddr string
	Name        string        // replica-set name (the catalog name the servers share)
	Addr        string        // this server's advertised address (the lease identity)
	Timeout     time.Duration // bounds the wait for the answer; must be positive
}

// Claim asks for (or renews) the lease, reporting this node's applied
// LSN and current epoch. One datagram out, one back, bounded by
// Timeout; the catalog may sit on the reply for its election window, so
// the timeout must comfortably exceed it (the node uses the lease TTL).
func (lc *LeaseClient) Claim(lsn, epoch uint64) (LeaseResult, error) {
	conn, err := net.Dial("udp", lc.CatalogAddr)
	if err != nil {
		return LeaseResult{}, err
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, claimFormat, lc.Name, lc.Addr, lsn, epoch); err != nil {
		return LeaseResult{}, err
	}
	if err := conn.SetReadDeadline(time.Now().Add(lc.Timeout)); err != nil {
		return LeaseResult{}, err
	}
	buf := make([]byte, 512)
	n, err := conn.Read(buf)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return LeaseResult{}, ErrLeaseTimeout
	} else if err != nil {
		return LeaseResult{}, err
	}
	return parseLeaseReply(string(buf[:n]))
}

// --- the catalog's side ------------------------------------------------

// DefaultLeaseTTL is the lease term when none is configured.
const DefaultLeaseTTL = 3 * time.Second

// Reply is one datagram the table sends, to the source of a claim.
type Reply struct {
	To  net.Addr
	Msg []byte
}

// LeaseTable is the catalog's lease state, one lease per replica-set
// name. It reads no clock and touches no socket: every method takes
// the time, and the datagrams to send come back to the caller. Not
// safe for concurrent use.
type LeaseTable struct {
	ttl  time.Duration // the lease term; an election window lasts a quarter of it
	sets map[string]*leaseSet
}

// NewLeaseTable returns an empty table granting terms of ttl.
func NewLeaseTable(ttl time.Duration) *LeaseTable {
	return &LeaseTable{ttl: ttl, sets: make(map[string]*leaseSet)}
}

// leaseSet is one replica set's lease.
type leaseSet struct {
	holder string
	epoch  uint64
	expiry time.Time
	window map[string]*windowClaim // by claimant address; non-nil while a window is open
}

// windowClaim is a claimant's best bid in an open window, and its source.
type windowClaim struct {
	Claim
	from net.Addr
}

// Claim folds one claim, received from `from` at now, into the table.
// A live lease renews for its holder (above a higher epoch the holder
// reports) and denies everyone else; an open window collects the claim,
// answered when the window closes; with neither, the claim opens a
// window, and closeAt reports when the caller must Close it (zero
// otherwise).
func (t *LeaseTable) Claim(c Claim, from net.Addr, now time.Time) (out []Reply, closeAt time.Time) {
	ls := t.sets[c.Name]
	switch {
	case ls != nil && ls.window != nil:
		// A repeated claim keeps the highest LSN and epoch it reported,
		// and its answer goes to the latest source.
		if prev := ls.window[c.Addr]; prev != nil {
			c.LSN, c.Epoch = max(c.LSN, prev.LSN), max(c.Epoch, prev.Epoch)
		}
		ls.window[c.Addr] = &windowClaim{c, from}
		return nil, time.Time{}
	case ls != nil && now.Before(ls.expiry):
		if c.Addr == ls.holder {
			// A holder that learned a higher epoch than the table's, which
			// another holder took under a catalog that since forgot it,
			// renews above both.
			if c.Epoch > ls.epoch {
				ls.epoch = c.Epoch + 1
			}
			ls.expiry = now.Add(t.ttl)
		}
		return []Reply{t.answer(ls, c.Addr, from)}, time.Time{}
	}
	if ls == nil {
		ls = &leaseSet{}
		t.sets[c.Name] = ls
	}
	ls.window = map[string]*windowClaim{c.Addr: {c, from}}
	return nil, now.Add(max(t.ttl/4, 50*time.Millisecond))
}

// Close decides name's open window at now: the claim with the highest
// applied LSN wins (ties break to the smallest address, so the outcome
// is deterministic) and holds the lease for a term at one above every
// epoch the table and the claimants know; every other claimant is
// denied and told the winner. Nil when no window is open.
func (t *LeaseTable) Close(name string, now time.Time) []Reply {
	ls := t.sets[name]
	if ls == nil || ls.window == nil {
		return nil
	}
	var winner *windowClaim
	epoch := ls.epoch
	for _, cl := range ls.window {
		epoch = max(epoch, cl.Epoch)
		if winner == nil || cl.LSN > winner.LSN || (cl.LSN == winner.LSN && cl.Addr < winner.Addr) {
			winner = cl
		}
	}
	ls.holder, ls.epoch, ls.expiry = winner.Addr, epoch+1, now.Add(t.ttl)
	out := make([]Reply, 0, len(ls.window))
	for _, cl := range ls.window {
		out = append(out, t.answer(ls, cl.Addr, cl.from))
	}
	ls.window = nil
	return out
}

// answer is ls's reply to the claimant at addr: a grant to the holder,
// a denial naming it to anyone else.
func (t *LeaseTable) answer(ls *leaseSet, addr string, to net.Addr) Reply {
	if addr == ls.holder {
		return Reply{to, fmt.Appendf(nil, grantFormat, ls.epoch, t.ttl.Milliseconds())}
	}
	return Reply{to, fmt.Appendf(nil, denyFormat, ls.epoch, ls.holder)}
}

// Holder reports name's holder and epoch at now ("" when no lease is
// live).
func (t *LeaseTable) Holder(name string, now time.Time) (holder string, epoch uint64) {
	ls := t.sets[name]
	if ls == nil || !now.Before(ls.expiry) {
		return "", 0
	}
	return ls.holder, ls.epoch
}

// --- the node's side ---------------------------------------------------

// leaseView is what a node knows of its lease: its role, the epoch it
// claims with, and where writes go.
type leaseView struct {
	role     string
	epoch    uint64
	upstream string
}

// withStore is the view a node claims with: a follower's store moves to
// the epoch of every batch it applies, which no lease answer reports,
// so a follower claims with the higher of the two epochs.
func (v leaseView) withStore(storeEpoch uint64) leaseView {
	if v.role == RoleFollower {
		v.epoch = max(v.epoch, storeEpoch)
	}
	return v
}

// fold returns the view after the catalog answered res to a claim that
// self made from v. A grant promotes a follower to the granted epoch
// and keeps a primary's epoch current; a fenced node refuses it, since
// its log may have diverged from the epoch that fenced it. A denial
// never lowers the epoch, re-targets the node at the holder it names,
// and fences a primary that it names another holder to or shows a
// higher epoch. The caller makes the store agree before it adopts the
// result.
func (v leaseView) fold(self string, res LeaseResult) leaseView {
	if res.Granted {
		switch v.role {
		case RoleFollower:
			return leaseView{role: RolePrimary, epoch: res.Epoch, upstream: self}
		case RolePrimary:
			v.epoch = max(v.epoch, res.Epoch)
		}
		return v
	}
	if v.role == RolePrimary && (res.Epoch > v.epoch || (res.Holder != "" && res.Holder != self)) {
		v.role = RoleFenced
	}
	v.epoch = max(v.epoch, res.Epoch)
	if res.Holder != "" {
		v.upstream = res.Holder
	}
	return v
}
