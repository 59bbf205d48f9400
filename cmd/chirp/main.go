// Command chirp is the client tool for Chirp servers.
//
// Usage:
//
//	chirp -addr host:port [-user name] <command> [args...]
//
// Commands:
//
//	whoami                      show the principal the server recorded
//	ls <dir>                    list a directory
//	put <local> <remote>        upload a host file
//	get <remote> [local]        download (prints to stdout without local)
//	cat <remote>                print a remote file
//	mkdir <dir>                 create a directory (reserve-right aware)
//	rm <path>                   remove a file
//	rmdir <dir>                 remove a directory
//	mv <old> <new>              rename
//	stat <path>                 show metadata
//	getacl <dir>                print a directory's ACL
//	setacl <dir> <pattern> <rights>   grant rights (requires 'a')
//	exec <cwd> <path> [args...] run a staged program in an identity box
//	stage <prog> <remote>       stage an executable dispatching to a
//	                            server-registered program name
//	stats                       show the server's live counters
//	metrics                     dump the server's metric registry
//	                            (Prometheus text exposition)
//	ping [n]                    n whoami round trips (default 5) plus
//	                            the negotiated window state, client
//	                            retry/breaker counters and
//	                            the server's fault-tolerance series
//	trace [hexid]               without an id: run a traced mkdir+rmdir
//	                            probe and print the full span chain —
//	                            client submit/send/await next to the
//	                            server's lane queue, handler, WAL
//	                            group-commit, durability barrier and
//	                            reply phases. With an id: fetch the
//	                            server's retained spans for that trace
//	                            (the probe needs write access at /)
//
// Authentication: -user sends a unix assertion; with -user "" the
// hostname method is used.
//
// Fault tolerance: -timeout bounds each wire exchange, -retries caps
// transparent retries of idempotent calls (0: none, so the first
// transport failure surfaces).
//
// Protocol: every session negotiates Chirp v2, tagged multiplexing
// under a credit window. -window and -max-inflight request smaller caps
// (the server's caps still bound them); -window 1 keeps one call in
// flight.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/auth"
	"identitybox/internal/chirp"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9094", "server address")
	user := flag.String("user", "", "unix user to authenticate as (empty: hostname method)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-call deadline on each wire exchange (0: none)")
	retries := flag.Int("retries", 3, "max transparent retries for idempotent calls (0: none)")
	window := flag.Int("window", 0, "requested credit window, tags in flight (0: the built-in default)")
	maxInflight := flag.Int64("max-inflight", 0, "requested in-flight byte budget (0: the built-in default)")
	deadlineBudget := flag.Duration("deadline-budget", 0, "wall-clock budget per logical call, retries included; propagated so the server sheds expired work (0: none)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	var auths []auth.Authenticator
	if *user != "" {
		auths = append(auths, &auth.UnixClient{User: *user})
	}
	auths = append(auths, &auth.HostnameClient{})

	opts := chirp.ClientOptions{Timeout: *timeout, MaxRetries: *retries,
		Window: *window, MaxInflightBytes: *maxInflight, DeadlineBudget: *deadlineBudget}
	if *retries <= 0 {
		opts.MaxRetries = -1 // the library reads 0 as its default
	}
	if args[0] == "trace" {
		// Only the trace subcommand asks for the trace capability: the
		// other commands keep the untraced wire format.
		traceRing = obs.NewSpanRing(256)
		opts.Spans = traceRing
	}
	cl, err := chirp.DialOpts(*addr, auths, opts)
	if err != nil {
		log.Fatalf("chirp: %v", err)
	}
	defer cl.Close()

	if err := dispatch(cl, args[0], args[1:]); err != nil {
		log.Fatalf("chirp: %s: %v", args[0], err)
	}
}

func dispatch(cl *chirp.Client, cmd string, args []string) error {
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("want %d arguments", n)
		}
		return nil
	}
	switch cmd {
	case "whoami":
		p, err := cl.Whoami()
		if err != nil {
			return err
		}
		fmt.Println(p)
		return nil
	case "ls":
		if err := need(1); err != nil {
			return err
		}
		ents, err := cl.ReadDir(args[0])
		if err != nil {
			return err
		}
		for _, e := range ents {
			fmt.Printf("%-8s %s\n", e.Type, e.Name)
		}
		return nil
	case "put":
		if err := need(2); err != nil {
			return err
		}
		data, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		return cl.PutFile(args[1], data, 0o644)
	case "get":
		if err := need(1); err != nil {
			return err
		}
		data, err := cl.GetFile(args[0])
		if err != nil {
			return err
		}
		if len(args) > 1 {
			return os.WriteFile(args[1], data, 0o644)
		}
		os.Stdout.Write(data)
		return nil
	case "cat":
		if err := need(1); err != nil {
			return err
		}
		data, err := cl.GetFile(args[0])
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
		return nil
	case "mkdir":
		if err := need(1); err != nil {
			return err
		}
		return cl.Mkdir(args[0], 0o755)
	case "rm":
		if err := need(1); err != nil {
			return err
		}
		return cl.Unlink(args[0])
	case "rmdir":
		if err := need(1); err != nil {
			return err
		}
		return cl.Rmdir(args[0])
	case "mv":
		if err := need(2); err != nil {
			return err
		}
		return cl.Rename(args[0], args[1])
	case "stat":
		if err := need(1); err != nil {
			return err
		}
		st, err := cl.Stat(args[0])
		if err != nil {
			return err
		}
		fmt.Printf("ino %d  type %s  mode %o  owner %s  nlink %d  size %d\n",
			st.Ino, st.Type, st.Mode, st.Owner, st.Nlink, st.Size)
		return nil
	case "getacl":
		if err := need(1); err != nil {
			return err
		}
		text, err := cl.GetACL(args[0])
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	case "setacl":
		if err := need(3); err != nil {
			return err
		}
		text, err := cl.GetACL(args[0])
		if err != nil {
			return err
		}
		a, err := acl.Parse(text)
		if err != nil {
			return err
		}
		e, err := acl.ParseEntry(args[1] + " " + args[2])
		if err != nil {
			return err
		}
		a.Set(e.Pattern, e.Rights, e.ReserveRights)
		return cl.SetACL(args[0], a.String())
	case "exec":
		if err := need(2); err != nil {
			return err
		}
		res, err := cl.Exec(args[0], args[1], args[2:]...)
		if err != nil {
			return err
		}
		fmt.Printf("exit %d (virtual runtime %.3fs)\n", res.Code, res.RuntimeSeconds)
		return nil
	case "stage":
		if err := need(2); err != nil {
			return err
		}
		return cl.PutFile(args[1], kernel.ExecutableBytes(args[0]), 0o755)
	case "stats":
		st, err := cl.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("server    %s\n", st.Name)
		fmt.Printf("conns     %d\n", st.Conns)
		fmt.Printf("sessions  %d\n", st.Sessions)
		fmt.Printf("requests  %d\n", st.Requests)
		fmt.Printf("errors    %d\n", st.Errors)
		fmt.Printf("rx bytes  %d\n", st.RxBytes)
		fmt.Printf("tx bytes  %d\n", st.TxBytes)
		if st.Role != "" {
			fmt.Printf("role      %s (epoch %d, applied lsn %d)\n", st.Role, st.Epoch, st.AppliedLSN)
		}
		fmt.Printf("this session: %d fds, %d grants\n", st.FDs, st.Grants)
		return nil
	case "metrics":
		text, err := cl.Metrics()
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	case "ping":
		n := 5
		if len(args) > 0 {
			v, err := strconv.Atoi(args[0])
			if err != nil || v < 1 {
				return fmt.Errorf("bad round-trip count %q", args[0])
			}
			n = v
		}
		return ping(cl, n)
	case "trace":
		if len(args) > 0 {
			return traceFetch(cl, args[0])
		}
		return traceProbe(cl)
	default:
		return fmt.Errorf("unknown command")
	}
}

// traceRing holds the client-side spans of the trace subcommand's own
// calls; set in main before dialing so negotiation asks for the trace
// capability.
var traceRing *obs.SpanRing

// traceProbe runs one traced mutating round trip (mkdir + rmdir of a
// scratch directory) under a forced trace ID and prints every span the
// trace produced on both ends, in start order: the client's
// submit/send/await phases interleaved with the server's lane queue,
// handler, WAL group-commit, durability barrier and reply timings.
func traceProbe(cl *chirp.Client) error {
	if ws := cl.WindowStats(); !ws.Traced {
		return errors.New("tracing not negotiated (the server must run with tracing enabled)")
	}
	id := obs.NewTraceID()
	cl.SetTrace(id)
	dir := "/.traceprobe-" + obs.FormatTraceID(id)[:8]
	if err := cl.Mkdir(dir, 0o755); err != nil {
		cl.SetTrace(0)
		return fmt.Errorf("probe mkdir %s: %w (the probe needs write access at /)", dir, err)
	}
	if err := cl.Rmdir(dir); err != nil {
		cl.SetTrace(0)
		return fmt.Errorf("probe rmdir %s: %w", dir, err)
	}
	cl.SetTrace(0) // the span fetch below gets its own trace ID
	spans := traceRing.Trace(id)
	server, err := cl.TraceSpans(id)
	if err != nil {
		return fmt.Errorf("fetching server spans: %w", err)
	}
	spans = append(spans, server...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	fmt.Printf("trace %s (%d spans)\n", obs.FormatTraceID(id), len(spans))
	for _, s := range spans {
		obs.WriteSpan(os.Stdout, s)
	}
	return nil
}

// traceFetch prints the server's retained spans for one trace ID.
func traceFetch(cl *chirp.Client, arg string) error {
	id, err := obs.ParseTraceID(arg)
	if err != nil || id == 0 {
		return fmt.Errorf("bad trace id %q", arg)
	}
	spans, err := cl.TraceSpans(id)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("no spans retained for %s (rotated out, or never traced)", obs.FormatTraceID(id))
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	fmt.Printf("trace %s (%d spans)\n", obs.FormatTraceID(id), len(spans))
	for _, s := range spans {
		obs.WriteSpan(os.Stdout, s)
	}
	return nil
}

// ping measures whoami round trips and reports the fault-tolerance
// counters on both ends: the client's retry/redial/breaker registry and
// the server's dedupe/draining series from the metrics RPC.
func ping(cl *chirp.Client, n int) error {
	var min, max, total time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := cl.Whoami(); err != nil {
			return fmt.Errorf("round trip %d: %w", i+1, err)
		}
		rtt := time.Since(start)
		total += rtt
		if min == 0 || rtt < min {
			min = rtt
		}
		if rtt > max {
			max = rtt
		}
	}
	fmt.Printf("%d round trips: min %v  avg %v  max %v\n", n, min, total/time.Duration(n), max)
	ws := cl.WindowStats()
	fmt.Printf("protocol: v%d  window %d tags / %d bytes  in flight %d  stalls %d\n",
		chirp.ProtocolV2, ws.Window, ws.MaxInflightBytes, ws.InFlight, ws.Stalls)
	if st, err := cl.Stats(); err == nil && st.Role != "" {
		fmt.Printf("role: %s  epoch %d  applied lsn %d\n", st.Role, st.Epoch, st.AppliedLSN)
	}
	fmt.Printf("breaker: %s\n", cl.Breaker().State())
	fmt.Print("client counters:\n")
	for _, line := range strings.Split(cl.LocalMetrics().Text(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			fmt.Printf("  %s\n", line)
		}
	}
	text, err := cl.Metrics()
	if err != nil {
		return err
	}
	fmt.Print("server fault-tolerance counters:\n")
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "chirp_dedupe_") || strings.HasPrefix(line, "chirp_draining") {
			fmt.Printf("  %s\n", line)
		}
	}
	return nil
}
