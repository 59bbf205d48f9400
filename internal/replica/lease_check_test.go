package replica

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"
	"time"
)

// The exhaustive check drives the lease rule — LeaseTable on the
// catalog's side, leaseView.fold and withStore on the node's — through
// every sequence of events up to a bound, for two and three claimants,
// with no sockets and no clock. A node's store (its epoch and applied
// LSN) is modelled apart from its lease view, mirroring what Node.claim
// makes the store do with each answer: a promotion and an epoch
// adoption each append one record.

// modelAddr is a claimant's address as the table sees a claim's source.
type modelAddr string

func (a modelAddr) Network() string { return "model" }
func (a modelAddr) String() string  { return string(a) }

// modelNode is one claimant: its lease view and its store.
type modelNode struct {
	addr       string
	view       leaseView
	storeEpoch uint64
	lsn        uint64
}

// modelState is one point of the exploration.
type modelState struct {
	now   time.Time
	table *LeaseTable
	nodes []modelNode
	// lost holds the open window's claimants: true for one whose answer
	// will be lost, false for one blocked waiting for it. knew holds the
	// highest epoch each of them knew, of its view's and its store's.
	lost map[string]bool
	knew map[string]uint64
	// grants are the epochs this catalog incarnation granted, by holder
	// address; top is the highest of them. ever is grants over every
	// incarnation.
	grants map[uint64]string
	top    uint64
	ever   map[uint64]string
}

// errReused marks a grant of an epoch that an earlier catalog
// incarnation granted to another holder, and that no claimant the grant
// answers knew of.
var errReused = errors.New("forgotten epoch re-granted after a catalog restart")

const modelTTL = 4 * time.Second

func newModel(n int) *modelState {
	s := &modelState{
		now:    time.Unix(1_000_000, 0),
		table:  NewLeaseTable(modelTTL),
		lost:   map[string]bool{},
		knew:   map[string]uint64{},
		grants: map[uint64]string{},
		ever:   map[uint64]string{},
	}
	for i := range n {
		addr := string(rune('a' + i))
		v := leaseView{role: RoleFollower, upstream: "a"}
		if i == 0 {
			v.role = RolePrimary
		}
		s.nodes = append(s.nodes, modelNode{addr: addr, view: v})
	}
	return s
}

func (s *modelState) clone() *modelState {
	c := *s
	c.nodes = append([]modelNode(nil), s.nodes...)
	c.lost = maps.Clone(s.lost)
	c.knew = maps.Clone(s.knew)
	c.grants = maps.Clone(s.grants)
	c.ever = maps.Clone(s.ever)
	c.table = NewLeaseTable(modelTTL)
	for name, ls := range s.table.sets {
		cp := *ls
		if ls.window != nil {
			cp.window = make(map[string]*windowClaim, len(ls.window))
			for a, wc := range ls.window {
				w := *wc
				cp.window[a] = &w
			}
		}
		c.table.sets[name] = &cp
	}
	return &c
}

// waiting reports whether a node is blocked in a claim the open window
// will answer: it neither claims again nor applies its stream meanwhile,
// since a follower claims only once its stream has ended.
func (s *modelState) waiting(addr string) bool {
	lost, in := s.lost[addr]
	return in && !lost
}

func (s *modelState) node(addr string) *modelNode {
	for i := range s.nodes {
		if s.nodes[i].addr == addr {
			return &s.nodes[i]
		}
	}
	return nil
}

// modelEvent is one step the exploration may take: it reports false
// when the step is not possible in s, and an error when an invariant
// broke.
type modelEvent struct {
	name string
	run  func(s *modelState) (bool, error)
}

const modelSet = "vol"

// claimEvent sends node i's claim; lose drops its answer, now or when
// the window it joins closes.
func claimEvent(i int, lose bool) modelEvent {
	name := fmt.Sprintf("claim(%c)", 'a'+i)
	if lose {
		name = fmt.Sprintf("claim(%c, answer lost)", 'a'+i)
	}
	return modelEvent{name, func(s *modelState) (bool, error) {
		n := &s.nodes[i]
		if s.waiting(n.addr) {
			return false, nil
		}
		v := n.view.withStore(n.storeEpoch)
		know := max(n.view.epoch, n.storeEpoch)
		live, _ := s.table.Holder(modelSet, s.now)
		out, _ := s.table.Claim(Claim{Name: modelSet, Addr: n.addr, LSN: n.lsn, Epoch: v.epoch}, modelAddr(n.addr), s.now)
		if len(out) == 0 {
			s.lost[n.addr], s.knew[n.addr] = lose, max(s.knew[n.addr], know)
			return true, nil
		}
		if live == n.addr && !strings.HasPrefix(string(out[0].Msg), "grant ") {
			return true, fmt.Errorf("live holder %s denied its renewal: %q", n.addr, out[0].Msg)
		}
		if err := s.record(out, map[string]uint64{n.addr: know}); err != nil || lose {
			return true, err
		}
		return true, s.deliver(out)
	}}
}

// closeEvent closes the open window and delivers its answers, but the
// lost ones.
var closeEvent = modelEvent{"close", func(s *modelState) (bool, error) {
	ls := s.table.sets[modelSet]
	if ls == nil || ls.window == nil {
		return false, nil
	}
	bids := map[string]uint64{}
	var best uint64
	for addr, wc := range ls.window {
		bids[addr], best = wc.LSN, max(best, wc.LSN)
	}
	out := s.table.Close(modelSet, s.now)
	var kept []Reply
	for _, r := range out {
		res, _ := parseLeaseReply(string(r.Msg))
		if res.Granted && bids[r.To.String()] < best {
			return true, fmt.Errorf("winner %s bid LSN %d, below the window's highest %d", r.To, bids[r.To.String()], best)
		}
		if !s.lost[r.To.String()] {
			kept = append(kept, r)
		}
	}
	knew := s.knew
	s.lost, s.knew = map[string]bool{}, map[string]uint64{}
	if err := s.record(out, knew); err != nil {
		return true, err
	}
	return true, s.deliver(kept)
}}

var tickEvent = modelEvent{"advance TTL/2", func(s *modelState) (bool, error) {
	s.now = s.now.Add(modelTTL / 2)
	return true, nil
}}

var restartEvent = modelEvent{"catalog restart", func(s *modelState) (bool, error) {
	if len(s.table.sets) == 0 {
		return false, nil
	}
	s.table = NewLeaseTable(modelTTL)
	s.lost, s.knew = map[string]bool{}, map[string]uint64{}
	s.grants, s.top = map[uint64]string{}, 0
	return true, nil
}}

// writeEvent appends a record on node i while it is primary.
func writeEvent(i int) modelEvent {
	return modelEvent{fmt.Sprintf("write(%c)", 'a'+i), func(s *modelState) (bool, error) {
		n := &s.nodes[i]
		if n.view.role != RolePrimary {
			return false, nil
		}
		n.lsn++
		return true, nil
	}}
}

// syncEvent applies follower i's upstream log, as its stream would:
// refused when the upstream's epoch is below its own.
func syncEvent(i int) modelEvent {
	return modelEvent{fmt.Sprintf("sync(%c)", 'a'+i), func(s *modelState) (bool, error) {
		n := &s.nodes[i]
		up := s.node(n.view.upstream)
		if n.view.role != RoleFollower || s.waiting(n.addr) || up == nil || up == n || up.view.role != RolePrimary ||
			up.storeEpoch < n.storeEpoch || (up.lsn <= n.lsn && up.storeEpoch == n.storeEpoch) {
			return false, nil
		}
		n.lsn, n.storeEpoch = up.lsn, up.storeEpoch
		return true, nil
	}}
}

// record checks the grants among out against this incarnation's:
// at most one holder per epoch, and no grant below an earlier one. A
// grant of an epoch an earlier incarnation gave another holder is an
// error when one of the claimants it answers (knew) knew that epoch,
// and errReused otherwise.
func (s *modelState) record(out []Reply, knew map[string]uint64) error {
	for _, r := range out {
		res, err := parseLeaseReply(string(r.Msg))
		if err != nil {
			return err
		}
		if !res.Granted {
			continue
		}
		to := r.To.String()
		if h, ok := s.grants[res.Epoch]; ok && h != to {
			return fmt.Errorf("epoch %d granted to %s and to %s", res.Epoch, h, to)
		}
		if res.Epoch < s.top {
			return fmt.Errorf("epoch %d granted to %s after epoch %d", res.Epoch, to, s.top)
		}
		if h, ok := s.ever[res.Epoch]; ok && h != to {
			for addr, e := range knew {
				if e >= res.Epoch {
					return fmt.Errorf("epoch %d, once %s's, granted to %s though %s knew epoch %d", res.Epoch, h, to, addr, e)
				}
			}
			return errReused
		}
		s.grants[res.Epoch], s.top, s.ever[res.Epoch] = to, max(s.top, res.Epoch), to
	}
	return nil
}

// deliver folds each answer into its node as Node.claim does, and
// checks what the node makes of it.
func (s *modelState) deliver(out []Reply) error {
	for _, r := range out {
		res, _ := parseLeaseReply(string(r.Msg))
		n := s.node(r.To.String())
		was := n.view.withStore(n.storeEpoch)
		next := was.fold(n.addr, res)
		switch {
		case was.role == RoleFollower && res.Granted && res.Epoch <= n.storeEpoch:
			return fmt.Errorf("%s granted epoch %d, not above its store's %d", n.addr, res.Epoch, n.storeEpoch)
		case was.role == RolePrimary && res.Granted && res.Epoch < n.storeEpoch:
			return fmt.Errorf("primary %s renewed at epoch %d, below its store's %d", n.addr, res.Epoch, n.storeEpoch)
		case was.role == RolePrimary && !res.Granted && res.Epoch > was.epoch && next.role != RoleFenced:
			return fmt.Errorf("primary %s denied at epoch %d above its %d is %s, not fenced", n.addr, res.Epoch, was.epoch, next.role)
		}
		if next.role == RolePrimary && next.epoch > n.storeEpoch {
			n.storeEpoch = next.epoch
			n.lsn++ // the epoch record
		}
		n.view = next
	}
	return nil
}

// explore runs every sequence of up to depth events from s, and counts
// the sequences it ran; one that re-grants an epoch across a restart is
// counted in reused and explored no further.
func explore(t *testing.T, s *modelState, events []modelEvent, depth int, trail []string, count, reused *int) {
	if depth == 0 {
		return
	}
	for _, ev := range events {
		next := s.clone()
		ok, err := ev.run(next)
		if !ok {
			continue
		}
		*count++
		path := append(trail, ev.name)
		switch {
		case errors.Is(err, errReused):
			if *reused == 0 {
				t.Logf("first epoch re-grant: %s", strings.Join(path, ", "))
			}
			*reused++
			continue
		case err != nil:
			t.Fatalf("after %s: %v", strings.Join(path, ", "), err)
		}
		explore(t, next, events, depth-1, path, count, reused)
	}
}

func modelEvents(n int) []modelEvent {
	events := []modelEvent{closeEvent, tickEvent, restartEvent}
	for i := range n {
		events = append(events, claimEvent(i, false), claimEvent(i, true), writeEvent(i), syncEvent(i))
	}
	return events
}

// TestLeaseRuleExhaustive explores every event sequence of two
// claimants to depth 6 and of three to depth 5 — claims and renewals,
// lost answers, time past the term, window closes, catalog restarts,
// writes on a primary and a follower applying its upstream's log — and
// checks after each event:
//   - at most one holder per epoch, and no grant below an earlier one,
//     within one catalog incarnation;
//   - the winner of an election has the highest applied LSN among its
//     window's claimants;
//   - a live holder is never denied its renewal;
//   - a primary denied at a higher epoch ends fenced;
//   - an election grant is above the grantee's store epoch, and a
//     renewal never below it.
//
// Across a restart an epoch is unique only as far as the claimants know:
// the catalog keeps no state, so when none of the claimants a grant
// answers knew the forgotten holder's epoch, in its view or its store,
// that epoch can be granted again. Such a sequence is counted and
// explored no further (ROADMAP item 18); a re-grant of an epoch a
// claimant knew fails the check.
func TestLeaseRuleExhaustive(t *testing.T) {
	start := time.Now()
	total := 0
	for _, c := range []struct{ nodes, depth int }{{2, 6}, {3, 5}} {
		count, reused := 0, 0
		explore(t, newModel(c.nodes), modelEvents(c.nodes), c.depth, nil, &count, &reused)
		t.Logf("%d claimants, depth %d: %d event sequences, %d cut at an epoch re-granted after a restart", c.nodes, c.depth, count, reused)
		total += count
	}
	if total < 10_000 {
		t.Fatalf("explored %d event sequences, want at least 10 000", total)
	}
	t.Logf("%d sequences in %v", total, time.Since(start))
}
