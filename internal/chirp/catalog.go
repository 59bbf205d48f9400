package chirp

import (
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"identitybox/internal/obs"
)

// Catalog collects heartbeats from Chirp servers over UDP and publishes
// the set of available servers to interested parties over TCP, one
// server per line: name address owner age-ms epoch lsn role.
//
// The same UDP socket arbitrates write leases for replica sets (see
// the lease protocol in internal/replica): the primary renews a TTL'd
// lease under the set's name; when renewals stop, the catalog opens a
// short election window, collects claims from followers, and grants
// the next epoch to the highest applied LSN — the epoch number fences
// the deposed primary everywhere.
type Catalog struct {
	mu      sync.Mutex
	servers map[string]*CatalogEntry
	leases  map[string]*leaseState
	now     func() time.Time

	udp    *net.UDPConn
	tcp    net.Listener
	wg     sync.WaitGroup
	closed bool

	// Expiry drops servers not heard from within this window (default
	// 15 minutes, matching production Chirp catalogs).
	Expiry time.Duration

	// LeaseTTL is the write-lease term (default 3 seconds). A primary
	// renews well inside it; failover latency is bounded by roughly one
	// TTL plus the election window (TTL/4).
	LeaseTTL time.Duration

	// Metrics, populated by SetMetrics; nil (and unrecorded) without it.
	heartbeats *obs.Counter
	malformed  *obs.Counter
	queries    *obs.Counter
	live       *obs.Gauge
	elections  *obs.Counter
}

// Catalog metric families (see SetMetrics).
const (
	MetricCatalogHeartbeats = "catalog_heartbeats_total"
	MetricCatalogMalformed  = "catalog_heartbeats_malformed_total"
	MetricCatalogQueries    = "catalog_queries_total"
	MetricCatalogLive       = "catalog_servers_live"
	MetricCatalogElections  = "catalog_lease_elections_total"
)

// SetMetrics registers the catalog's counters with a registry: accepted
// and malformed heartbeat datagrams, served queries, a live-server
// gauge refreshed on every expiry sweep, and lease elections run. Call
// before Listen.
func (c *Catalog) SetMetrics(reg *obs.Registry) {
	reg.Help(MetricCatalogHeartbeats, "Heartbeat datagrams accepted.")
	reg.Help(MetricCatalogMalformed, "Heartbeat datagrams dropped as malformed.")
	reg.Help(MetricCatalogQueries, "Server-list queries served.")
	reg.Help(MetricCatalogLive, "Servers currently live (refreshed on expiry sweeps).")
	reg.Help(MetricCatalogElections, "Write-lease elections decided.")
	c.heartbeats = reg.Counter(MetricCatalogHeartbeats)
	c.malformed = reg.Counter(MetricCatalogMalformed)
	c.queries = reg.Counter(MetricCatalogQueries)
	c.live = reg.Gauge(MetricCatalogLive)
	c.elections = reg.Counter(MetricCatalogElections)
}

// CatalogEntry describes one known server. Age is computed at listing
// time; Epoch, LSN and Role are the server's self-reported replication
// state (zero values for servers that do not replicate).
type CatalogEntry struct {
	Name      string
	Addr      string
	Owner     string
	LastHeard time.Time
	Age       time.Duration
	Epoch     uint64
	LSN       uint64
	Role      string
}

// leaseState is one replica set's write lease.
type leaseState struct {
	holder   string // advertised address of the current primary
	epoch    uint64
	expiry   time.Time
	election *leaseElection // non-nil while an election window is open
}

// leaseElection collects claims during the post-expiry window; replies
// are deferred until the window closes and the winner is known.
type leaseElection struct {
	claims map[string]*leaseClaim // by claimant address
}

// leaseClaim is one follower's bid: its applied LSN decides the
// election; src is where the grant or denial goes.
type leaseClaim struct {
	addr  string
	lsn   uint64
	epoch uint64
	src   *net.UDPAddr
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		servers:  make(map[string]*CatalogEntry),
		leases:   make(map[string]*leaseState),
		now:      time.Now,
		Expiry:   15 * time.Minute,
		LeaseTTL: 3 * time.Second,
	}
}

// SetClock overrides the catalog clock (tests). Lease expiry follows
// the injected clock; election windows are real timers.
func (c *Catalog) SetClock(now func() time.Time) { c.now = now }

// listenAttempts bounds how often Listen re-draws an ephemeral port
// whose TCP side another socket already holds.
const listenAttempts = 8

// Listen binds the heartbeat (UDP) and query (TCP) endpoints to the
// same address string and begins serving. With port 0 the kernel picks
// the UDP port, whose TCP twin may be taken; Listen then releases the
// UDP socket and tries a fresh port, up to listenAttempts times. A
// fixed port is tried once.
func (c *Catalog) Listen(addr string) error {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	attempts := 1
	if uaddr.Port == 0 {
		attempts = listenAttempts
	}
	for i := 0; ; i++ {
		c.udp, err = net.ListenUDP("udp", uaddr)
		if err != nil {
			return err
		}
		// Use the resolved UDP port for TCP too, so one address serves both.
		c.tcp, err = net.Listen("tcp", c.udp.LocalAddr().String())
		if err == nil {
			break
		}
		c.udp.Close()
		c.udp = nil
		if i+1 == attempts {
			return err
		}
	}
	c.wg.Add(2)
	go c.heartbeatLoop()
	go c.queryLoop()
	return nil
}

// Addr reports the bound address (same for UDP heartbeats and TCP
// queries).
func (c *Catalog) Addr() string {
	if c.udp == nil {
		return ""
	}
	return c.udp.LocalAddr().String()
}

// Close stops both listeners.
func (c *Catalog) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	if c.udp != nil {
		c.udp.Close()
	}
	if c.tcp != nil {
		c.tcp.Close()
	}
	c.wg.Wait()
	return nil
}

func (c *Catalog) heartbeatLoop() {
	defer c.wg.Done()
	buf := make([]byte, 4096)
	for {
		n, src, err := c.udp.ReadFromUDP(buf)
		if err != nil {
			return
		}
		line := strings.TrimSpace(string(buf[:n]))
		if strings.HasPrefix(line, "lease ") {
			c.handleLease(line, src)
			continue
		}
		c.Record(line)
	}
}

// Record parses one heartbeat datagram:
//
//	chirp <name> <addr> <owner> [epoch=N lsn=N role=R]
//
// The bracketed tokens are the replication extension; heartbeats from
// servers that do not replicate carry none, and unknown tokens are
// ignored so newer servers stay compatible with this catalog.
func (c *Catalog) Record(datagram string) {
	fields, err := splitFields(strings.TrimSpace(datagram))
	if err != nil || len(fields) < 4 || fields[0] != "chirp" {
		if c.malformed != nil {
			c.malformed.Inc()
		}
		return
	}
	e := &CatalogEntry{
		Name:  fields[1],
		Addr:  fields[2],
		Owner: fields[3],
	}
	for _, tok := range fields[4:] {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			continue
		}
		switch k {
		case "epoch":
			e.Epoch, _ = strconv.ParseUint(v, 10, 64)
		case "lsn":
			e.LSN, _ = strconv.ParseUint(v, 10, 64)
		case "role":
			e.Role = v
		}
	}
	if c.heartbeats != nil {
		c.heartbeats.Inc()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e.LastHeard = c.now()
	c.servers[e.Addr] = e
}

// Entries lists the live servers, sorted by name, with ages computed
// against the catalog clock. Servers past the Expiry staleness budget
// are dropped.
func (c *Catalog) Entries() []CatalogEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	out := make([]CatalogEntry, 0, len(c.servers))
	for addr, e := range c.servers {
		age := now.Sub(e.LastHeard)
		if age > c.Expiry {
			delete(c.servers, addr)
			continue
		}
		snap := *e
		snap.Age = age
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	if c.live != nil {
		c.live.Set(int64(len(out)))
	}
	return out
}

// --- write leases -------------------------------------------------------

// handleLease processes one `lease <name> <addr> <lsn> <epoch>` claim.
// A live lease renews for its holder and denies everyone else; an
// expired (or absent) lease opens an election window during which all
// claims are collected, decided when the window closes.
func (c *Catalog) handleLease(line string, src *net.UDPAddr) {
	fields, err := splitFields(line)
	if err != nil || len(fields) != 5 {
		if c.malformed != nil {
			c.malformed.Inc()
		}
		return
	}
	name, addr := fields[1], fields[2]
	lsn, err1 := strconv.ParseUint(fields[3], 10, 64)
	epoch, err2 := strconv.ParseUint(fields[4], 10, 64)
	if err1 != nil || err2 != nil {
		if c.malformed != nil {
			c.malformed.Inc()
		}
		return
	}
	claim := &leaseClaim{addr: addr, lsn: lsn, epoch: epoch, src: src}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	ls := c.leases[name]
	if ls != nil && ls.election != nil {
		// Window open: collect (a repeated claim from the same address
		// keeps its best LSN) and reply when it closes.
		if prev, ok := ls.election.claims[addr]; !ok || lsn > prev.lsn {
			ls.election.claims[addr] = claim
		}
		return
	}
	if ls != nil && now.Before(ls.expiry) {
		if addr == ls.holder {
			// Renewal: extend, and adopt a higher epoch the holder knows
			// (it survives a catalog restart that forgot the term).
			if epoch > ls.epoch {
				ls.epoch = epoch
			}
			ls.expiry = now.Add(c.leaseTTL())
			c.replyLease(src, fmt.Sprintf("grant %d %d", ls.epoch, c.leaseTTL().Milliseconds()))
			return
		}
		c.replyLease(src, fmt.Sprintf("deny %d %s", ls.epoch, ls.holder))
		return
	}
	// No live lease: open the election window with this first claim.
	if ls == nil {
		ls = &leaseState{}
		c.leases[name] = ls
	}
	ls.election = &leaseElection{claims: map[string]*leaseClaim{addr: claim}}
	window := c.leaseTTL() / 4
	if window <= 0 {
		window = 50 * time.Millisecond
	}
	time.AfterFunc(window, func() { c.closeElection(name) })
}

func (c *Catalog) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return 3 * time.Second
}

// closeElection decides an election window: the claim with the highest
// applied LSN wins (ties break to the lexicographically smallest
// address, so the outcome is deterministic), takes the next epoch, and
// is granted; every other claimant is denied with the winner's name.
func (c *Catalog) closeElection(name string) {
	c.mu.Lock()
	ls := c.leases[name]
	if ls == nil || ls.election == nil {
		c.mu.Unlock()
		return
	}
	claims := ls.election.claims
	ls.election = nil
	var winner *leaseClaim
	maxEpoch := ls.epoch
	for _, cl := range claims {
		if cl.epoch > maxEpoch {
			maxEpoch = cl.epoch
		}
		if winner == nil || cl.lsn > winner.lsn || (cl.lsn == winner.lsn && cl.addr < winner.addr) {
			winner = cl
		}
	}
	ls.epoch = maxEpoch + 1
	ls.holder = winner.addr
	ls.expiry = c.now().Add(c.leaseTTL())
	epoch, ttl := ls.epoch, c.leaseTTL()
	if c.elections != nil {
		c.elections.Inc()
	}
	c.mu.Unlock()
	for _, cl := range claims {
		if cl == winner {
			c.replyLease(cl.src, fmt.Sprintf("grant %d %d", epoch, ttl.Milliseconds()))
		} else {
			c.replyLease(cl.src, fmt.Sprintf("deny %d %s", epoch, winner.addr))
		}
	}
}

// replyLease sends one grant/deny datagram back to a claimant.
func (c *Catalog) replyLease(src *net.UDPAddr, msg string) {
	if c.udp == nil || src == nil {
		return
	}
	c.udp.WriteToUDP([]byte(msg+"\n"), src)
}

// LeaseHolder reports the current holder and epoch of a named lease
// ("" when none is live).
func (c *Catalog) LeaseHolder(name string) (holder string, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ls := c.leases[name]
	if ls == nil || !c.now().Before(ls.expiry) {
		return "", 0
	}
	return ls.holder, ls.epoch
}

func (c *Catalog) queryLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.tcp.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer conn.Close()
			if c.queries != nil {
				c.queries.Inc()
			}
			for _, e := range c.Entries() {
				fmt.Fprintf(conn, "%s %s %s %d %d %d %s\n",
					q(e.Name), q(e.Addr), q(e.Owner), e.Age.Milliseconds(), e.Epoch, e.LSN, q(e.Role))
			}
		}()
	}
}

// QueryCatalog fetches the server list from a catalog. Lines from an
// older catalog carry only name/addr/owner/age; the replication columns
// (epoch, lsn, role) stay zero for those.
func QueryCatalog(addr string) ([]CatalogEntry, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	c := newCodec(conn)
	defer c.release()
	var out []CatalogEntry
	for {
		line, err := c.readLine()
		if err != nil {
			break // EOF ends the listing
		}
		fields, err := splitFields(string(line))
		if err != nil || len(fields) < 4 {
			continue
		}
		e := CatalogEntry{Name: fields[0], Addr: fields[1], Owner: fields[2]}
		if ms, err := strconv.ParseInt(fields[3], 10, 64); err == nil {
			e.Age = time.Duration(ms) * time.Millisecond
		}
		if len(fields) >= 7 {
			e.Epoch, _ = strconv.ParseUint(fields[4], 10, 64)
			e.LSN, _ = strconv.ParseUint(fields[5], 10, 64)
			e.Role = fields[6]
		}
		out = append(out, e)
	}
	return out, nil
}
