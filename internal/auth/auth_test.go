package auth

import (
	"crypto/rsa"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"identitybox/internal/identity"
)

// rsaPub shortens map literals in tests.
type rsaPub = rsa.PublicKey

// pipeConns returns two connected Conns over an in-memory duplex pipe.
func pipeConns(t *testing.T) (client, server *Conn) {
	t.Helper()
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	return NewConn(c1), NewConn(c2)
}

// negotiate runs both sides concurrently.
func negotiate(t *testing.T, auths []Authenticator, verifiers map[Method]Verifier, remoteHost string) (clientP, serverP identity.Principal, clientErr, serverErr error) {
	t.Helper()
	cc, sc := pipeConns(t)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		serverP, serverErr = ServerNegotiate(sc, verifiers, remoteHost)
	}()
	go func() {
		defer wg.Done()
		clientP, clientErr = ClientNegotiate(cc, auths)
	}()
	wg.Wait()
	return
}

func TestGSIRoundTrip(t *testing.T) {
	ca, err := NewCA("UnivNowhereCA")
	if err != nil {
		t.Fatal(err)
	}
	cred, err := ca.Issue("/O=UnivNowhere/CN=Fred")
	if err != nil {
		t.Fatal(err)
	}
	cp, sp, cerr, serr := negotiate(t,
		[]Authenticator{&GSIClient{Cred: cred}},
		map[Method]Verifier{MethodGlobus: &GSIVerifier{TrustedCAs: map[string]*rsaPub{"UnivNowhereCA": ca.PublicKey()}}},
		"client.host")
	if cerr != nil || serr != nil {
		t.Fatalf("errs: client %v, server %v", cerr, serr)
	}
	want := identity.Principal("globus:/O=UnivNowhere/CN=Fred")
	if cp != want || sp != want {
		t.Fatalf("principals = %q / %q, want %q", cp, sp, want)
	}
}

func TestGSIUntrustedCARejected(t *testing.T) {
	goodCA, _ := NewCA("Good")
	rogueCA, _ := NewCA("Rogue")
	cred, _ := rogueCA.Issue("/O=Evil/CN=Mallory")
	_, _, cerr, serr := negotiate(t,
		[]Authenticator{&GSIClient{Cred: cred}},
		map[Method]Verifier{MethodGlobus: &GSIVerifier{TrustedCAs: map[string]*rsaPub{"Good": goodCA.PublicKey()}}},
		"x")
	if serr == nil || !errors.Is(serr, ErrRejected) {
		t.Fatalf("server err = %v, want rejection", serr)
	}
	if cerr == nil {
		t.Fatal("client should observe failure")
	}
}

func TestGSIStolenCertWithoutKeyFails(t *testing.T) {
	ca, _ := NewCA("CA")
	victim, _ := ca.Issue("/O=U/CN=Victim")
	attacker, _ := ca.Issue("/O=U/CN=Attacker")
	// The attacker presents the victim's certificate but holds only its
	// own private key: the nonce challenge must fail.
	stolen := &Credential{Subject: victim.Subject, Key: attacker.Key, Cert: victim.Cert}
	_, _, _, serr := negotiate(t,
		[]Authenticator{&GSIClient{Cred: stolen}},
		map[Method]Verifier{MethodGlobus: &GSIVerifier{TrustedCAs: map[string]*rsaPub{"CA": ca.PublicKey()}}},
		"x")
	if serr == nil || !errors.Is(serr, ErrRejected) {
		t.Fatalf("server err = %v, want challenge rejection", serr)
	}
}

func TestKerberosRoundTrip(t *testing.T) {
	kdc := NewKDC("NOWHERE.EDU")
	key, err := kdc.RegisterService("chirp/server")
	if err != nil {
		t.Fatal(err)
	}
	tk, err := kdc.Grant("fred@nowhere.edu", "chirp/server", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cp, sp, cerr, serr := negotiate(t,
		[]Authenticator{&KerberosClient{Ticket: tk}},
		map[Method]Verifier{MethodKerberos: &KerberosVerifier{Service: "chirp/server", ServiceKey: key}},
		"x")
	if cerr != nil || serr != nil {
		t.Fatalf("errs: %v / %v", cerr, serr)
	}
	want := identity.Principal("kerberos:fred@nowhere.edu")
	if cp != want || sp != want {
		t.Fatalf("principals = %q / %q", cp, sp)
	}
}

func TestKerberosExpiredTicket(t *testing.T) {
	kdc := NewKDC("R")
	key, _ := kdc.RegisterService("svc")
	tk, _ := kdc.Grant("u@r", "svc", -time.Hour) // expired an hour ago
	verifier := &KerberosVerifier{Service: "svc", ServiceKey: key}
	_, _, _, serr := negotiate(t,
		[]Authenticator{&KerberosClient{Ticket: tk}},
		map[Method]Verifier{MethodKerberos: verifier}, "x")
	if serr == nil || !strings.Contains(serr.Error(), "expired") {
		t.Fatalf("server err = %v, want expiry rejection", serr)
	}
}

func TestKerberosForgedTicket(t *testing.T) {
	kdc := NewKDC("R")
	key, _ := kdc.RegisterService("svc")
	tk, _ := kdc.Grant("u@r", "svc", time.Hour)
	tk.User = "root@r" // tamper after issue
	_, _, _, serr := negotiate(t,
		[]Authenticator{&KerberosClient{Ticket: tk}},
		map[Method]Verifier{MethodKerberos: &KerberosVerifier{Service: "svc", ServiceKey: key}}, "x")
	if serr == nil || !errors.Is(serr, ErrRejected) {
		t.Fatalf("server err = %v, want forgery rejection", serr)
	}
}

func TestUnixRoundTrip(t *testing.T) {
	cp, sp, cerr, serr := negotiate(t,
		[]Authenticator{&UnixClient{User: "dthain"}},
		map[Method]Verifier{MethodUnix: &UnixVerifier{}}, "x")
	if cerr != nil || serr != nil {
		t.Fatalf("errs: %v / %v", cerr, serr)
	}
	if cp != "unix:dthain" || sp != "unix:dthain" {
		t.Fatalf("principals = %q / %q", cp, sp)
	}
}

func TestUnixAllowList(t *testing.T) {
	_, _, _, serr := negotiate(t,
		[]Authenticator{&UnixClient{User: "mallory"}},
		map[Method]Verifier{MethodUnix: &UnixVerifier{Allowed: map[string]bool{"dthain": true}}}, "x")
	if serr == nil || !errors.Is(serr, ErrRejected) {
		t.Fatalf("server err = %v, want rejection", serr)
	}
}

func TestHostnameRoundTrip(t *testing.T) {
	hosts := HostTable{"10.0.0.7": "laptop.cs.nowhere.edu"}
	cp, sp, cerr, serr := negotiate(t,
		[]Authenticator{&HostnameClient{}},
		map[Method]Verifier{MethodHostname: &HostnameVerifier{Hosts: hosts}},
		"10.0.0.7")
	if cerr != nil || serr != nil {
		t.Fatalf("errs: %v / %v", cerr, serr)
	}
	want := identity.Principal("hostname:laptop.cs.nowhere.edu")
	if cp != want || sp != want {
		t.Fatalf("principals = %q / %q", cp, sp)
	}
}

func TestNegotiationFallsBack(t *testing.T) {
	// Client prefers globus, server only supports unix: negotiation
	// must fall through to the second method.
	ca, _ := NewCA("CA")
	cred, _ := ca.Issue("/O=U/CN=F")
	cp, sp, cerr, serr := negotiate(t,
		[]Authenticator{&GSIClient{Cred: cred}, &UnixClient{User: "fred"}},
		map[Method]Verifier{MethodUnix: &UnixVerifier{}}, "x")
	if cerr != nil || serr != nil {
		t.Fatalf("errs: %v / %v", cerr, serr)
	}
	if cp != "unix:fred" || sp != "unix:fred" {
		t.Fatalf("principals = %q / %q", cp, sp)
	}
}

func TestNegotiationNoCommonMethod(t *testing.T) {
	_, _, cerr, serr := negotiate(t,
		[]Authenticator{&UnixClient{User: "u"}},
		map[Method]Verifier{MethodHostname: &HostnameVerifier{}}, "x")
	if !errors.Is(cerr, ErrNoCommonMethod) {
		t.Fatalf("client err = %v", cerr)
	}
	if !errors.Is(serr, ErrNoCommonMethod) {
		t.Fatalf("server err = %v", serr)
	}
}

func TestConnRejectsEmbeddedNewline(t *testing.T) {
	cc, _ := pipeConns(t)
	if err := cc.WriteLine("evil\ninjection"); err == nil {
		t.Fatal("embedded newline accepted")
	}
}

// TestCertificateLinesFitMaxLine: the longest credential line the
// tests send (a second-level proxy's certificate) fits MaxLine with
// room to spare. It generates RSA keys, so it stays out of
// TestLineBoundAuth, which CI repeats many times.
func TestCertificateLinesFitMaxLine(t *testing.T) {
	_, _, proxy := proxyFixture(t)
	proxy2, err := proxy.Delegate()
	if err != nil {
		t.Fatal(err)
	}
	for _, cert := range proxy2.Chain {
		if n := len(cert.line()) + 1; n > MaxLine/2 {
			t.Fatalf("certificate line of %d bytes leaves MaxLine (%d) no margin", n, MaxLine)
		}
	}
}

// TestLineBoundAuth sends one byte past MaxLine with no newline: the
// read must end in ErrLineTooLong, having taken no more than the bound
// from the peer, where an unbounded reader would buffer whatever an
// unauthenticated peer streamed. The refused read's own allocation is
// averaged over many reads, so a goroutine allocating elsewhere in the
// process cannot push it past the bound.
func TestLineBoundAuth(t *testing.T) {
	long := strings.Repeat("x", MaxLine+1)
	peer := &countingReader{r: strings.NewReader(long)}
	rw := struct {
		io.Reader
		io.Writer
	}{peer, io.Discard}
	c := NewConn(rw)
	if _, err := c.ReadLine(); !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("reading %d bytes without a newline: %v, want ErrLineTooLong", MaxLine+1, err)
	}
	if peer.n > MaxLine {
		t.Errorf("the refused line took %d bytes from the peer, more than the %d-byte bound", peer.n, MaxLine)
	}

	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		peer.r.Reset(long)
		c.r.Reset(rw)
		if _, err := c.ReadLine(); !errors.Is(err, ErrLineTooLong) {
			t.Fatalf("run %d: %v, want ErrLineTooLong", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	if n := (after.TotalAlloc - before.TotalAlloc) / runs; n > MaxLine {
		t.Errorf("a refused line allocated %d bytes on average, more than the %d-byte bound", n, MaxLine)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r *strings.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}
