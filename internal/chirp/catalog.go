package chirp

import (
	"cmp"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"identitybox/internal/obs"
	"identitybox/internal/replica"
)

// Catalog collects heartbeats from Chirp servers over UDP and publishes
// the set of available servers to interested parties over TCP, one
// server per line: name address owner age-ms epoch lsn role.
//
// The same UDP socket carries the write leases of replica sets: the
// catalog hands each claim to its replica.LeaseTable, sends the
// datagrams the table returns, and closes an election window when the
// table says it ends. The rule itself lives in internal/replica.
type Catalog struct {
	mu      sync.Mutex
	servers map[string]*CatalogEntry
	leases  *replica.LeaseTable
	windows map[string]func() bool // stops each open election window's timer
	clk     clock

	udp    *net.UDPConn
	tcp    net.Listener
	wg     sync.WaitGroup
	closed bool

	// Expiry drops servers not heard from within this window (default
	// 15 minutes, matching production Chirp catalogs).
	Expiry time.Duration

	// LeaseTTL is the write-lease term (default 3 seconds), read by
	// Listen. A primary renews well inside it; failover latency is
	// bounded by roughly one TTL plus the election window (TTL/4).
	LeaseTTL time.Duration

	// Metrics, on a private registry until SetMetrics.
	heartbeats *obs.Counter
	malformed  *obs.Counter
	queries    *obs.Counter
	live       *obs.Gauge
	claims     *obs.Counter
	elections  *obs.Counter
}

// Catalog metric families (see SetMetrics).
const (
	MetricCatalogHeartbeats = "catalog_heartbeats_total"
	MetricCatalogMalformed  = "catalog_heartbeats_malformed_total"
	MetricCatalogQueries    = "catalog_queries_total"
	MetricCatalogLive       = "catalog_servers_live"
	MetricCatalogClaims     = "catalog_lease_claims_total"
	MetricCatalogElections  = "catalog_lease_elections_total"
)

// SetMetrics registers the catalog's counters with a registry: accepted
// and malformed heartbeat datagrams, served queries, a live-server
// gauge refreshed on every expiry sweep, lease claims taken and lease
// elections run. Call before Listen.
func (c *Catalog) SetMetrics(reg *obs.Registry) {
	reg.Help(MetricCatalogHeartbeats, "Heartbeat datagrams accepted.")
	reg.Help(MetricCatalogMalformed, "Heartbeat datagrams dropped as malformed.")
	reg.Help(MetricCatalogQueries, "Server-list queries served.")
	reg.Help(MetricCatalogLive, "Servers currently live (refreshed on expiry sweeps).")
	reg.Help(MetricCatalogClaims, "Write-lease claims and renewals taken.")
	reg.Help(MetricCatalogElections, "Write-lease elections decided.")
	c.heartbeats = reg.Counter(MetricCatalogHeartbeats)
	c.malformed = reg.Counter(MetricCatalogMalformed)
	c.queries = reg.Counter(MetricCatalogQueries)
	c.live = reg.Gauge(MetricCatalogLive)
	c.claims = reg.Counter(MetricCatalogClaims)
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

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog { return newCatalog(wallClock{}) }

func newCatalog(clk clock) *Catalog {
	c := &Catalog{
		servers:  make(map[string]*CatalogEntry),
		leases:   replica.NewLeaseTable(replica.DefaultLeaseTTL),
		windows:  make(map[string]func() bool),
		clk:      clk,
		Expiry:   15 * time.Minute,
		LeaseTTL: replica.DefaultLeaseTTL,
	}
	c.SetMetrics(obs.NewRegistry())
	return c
}

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
	c.leases = replica.NewLeaseTable(cmp.Or(c.LeaseTTL, replica.DefaultLeaseTTL))
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

// Close stops both listeners and every open election window.
func (c *Catalog) Close() error {
	c.mu.Lock()
	c.closed = true
	for _, stop := range c.windows {
		stop() // and closed keeps new ones from opening
	}
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
		line := string(buf[:n])
		if claim, err := replica.ParseClaim(line); err == nil {
			c.handleLease(claim, src)
			continue
		}
		c.Record(line) // a malformed claim counts as a malformed heartbeat
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
		c.malformed.Inc()
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
	c.heartbeats.Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	e.LastHeard = c.clk.now()
	c.servers[e.Addr] = e
}

// Entries lists the live servers, sorted by name, with ages computed
// against the catalog clock. Servers past the Expiry staleness budget
// are dropped.
func (c *Catalog) Entries() []CatalogEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clk.now()
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
	c.live.Set(int64(len(out)))
	return out
}

// handleLease hands one claim to the lease table, sends its answers,
// and arms the timer that closes a window the claim opened.
func (c *Catalog) handleLease(claim replica.Claim, src *net.UDPAddr) {
	c.mu.Lock()
	now := c.clk.now()
	out, closeAt := c.leases.Claim(claim, src, now)
	if !closeAt.IsZero() && !c.closed {
		c.windows[claim.Name] = c.clk.afterFunc(closeAt.Sub(now), func() { c.closeElection(claim.Name) })
	}
	c.claims.Inc()
	c.mu.Unlock()
	c.send(out)
}

// closeElection decides name's election window and sends its answers.
func (c *Catalog) closeElection(name string) {
	c.mu.Lock()
	delete(c.windows, name)
	out := c.leases.Close(name, c.clk.now())
	if out != nil {
		c.elections.Inc()
	}
	c.mu.Unlock()
	c.send(out)
}

// send writes the lease table's answers.
func (c *Catalog) send(out []replica.Reply) {
	for _, r := range out {
		c.udp.WriteTo(r.Msg, r.To)
	}
}

// LeaseHolder reports the current holder and epoch of a named lease
// ("" when none is live).
func (c *Catalog) LeaseHolder(name string) (holder string, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leases.Holder(name, c.clk.now())
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
			c.queries.Inc()
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
