// Package auth implements the authentication methods a Chirp server
// negotiates with its clients, each yielding a principal name of the
// form "method:subject":
//
//	globus:/O=UnivNowhere/CN=Fred     (GSI-style public-key credentials)
//	kerberos:fred@nowhere.edu         (ticket from a toy KDC)
//	unix:dthain                       (asserted local account)
//	hostname:laptop.cs.nowhere.edu    (reverse lookup of the peer)
//
// The real systems (Globus GSI, MIT Kerberos) are replaced by compact
// stdlib-crypto equivalents that preserve what matters to identity
// boxing: a negotiated method followed by a proof of identity, yielding
// a principal string used for all access control. See DESIGN.md
// (substitutions).
//
// Negotiation follows the Chirp pattern: the client proposes methods in
// preference order; the server answers "no" until one it supports
// arrives, then "yes", and the method-specific exchange runs.
package auth

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"strings"

	"identitybox/internal/identity"
)

// Method names an authentication mechanism.
type Method string

// The four methods of the paper's Chirp implementation.
const (
	MethodGlobus   Method = "globus"
	MethodKerberos Method = "kerberos"
	MethodUnix     Method = "unix"
	MethodHostname Method = "hostname"
)

// ErrNoCommonMethod is returned when negotiation exhausts the client's
// method list.
var ErrNoCommonMethod = errors.New("auth: no mutually acceptable method")

// ErrRejected is returned when the server refuses the offered proof.
var ErrRejected = errors.New("auth: credentials rejected")

// MaxLine bounds one line of the authentication dialogue, its newline
// included. The longest line a method sends is a GSI certificate
// (subject, issuer, a base64 public key and signature), several times
// shorter; the bound is what an unauthenticated peer can make the
// server hold.
const MaxLine = 4 << 10

// ErrLineTooLong ends a dialogue whose peer sends a line longer than
// MaxLine.
var ErrLineTooLong = fmt.Errorf("auth: line longer than %d bytes", MaxLine)

// Conn frames the authentication dialogue as newline-delimited fields
// with base64 for binary blobs.
type Conn struct {
	r *bufio.Reader // MaxLine bytes: a line must fit it whole
	w *bufio.Writer
}

// NewConn wraps a transport for the authentication dialogue.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{r: bufio.NewReaderSize(rw, MaxLine), w: bufio.NewWriter(rw)}
}

// WriteLine sends one line and flushes.
func (c *Conn) WriteLine(s string) error {
	if strings.ContainsAny(s, "\n\r") {
		return fmt.Errorf("auth: line contains newline: %q", s)
	}
	if _, err := c.w.WriteString(s + "\n"); err != nil {
		return err
	}
	return c.w.Flush()
}

// ReadLine receives one line, stripped of its terminator. A line that
// does not fit MaxLine is ErrLineTooLong, with no more than MaxLine
// bytes read.
func (c *Conn) ReadLine() (string, error) {
	b, err := c.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return "", ErrLineTooLong
	}
	if err != nil {
		return "", err
	}
	return string(bytes.TrimRight(b, "\r\n")), nil
}

// WriteBlob sends binary data base64-encoded on one line.
func (c *Conn) WriteBlob(b []byte) error {
	return c.WriteLine(base64.StdEncoding.EncodeToString(b))
}

// ReadBlob receives one base64 line.
func (c *Conn) ReadBlob() ([]byte, error) {
	s, err := c.ReadLine()
	if err != nil {
		return nil, err
	}
	return base64.StdEncoding.DecodeString(s)
}

// Authenticator is the client side of one method: it proposes the
// method and, if accepted, proves the identity.
type Authenticator interface {
	Method() Method
	// Prove runs the client half of the method-specific exchange and
	// returns the principal the client believes it proved.
	Prove(c *Conn) (identity.Principal, error)
}

// Verifier is the server side of one method.
type Verifier interface {
	Method() Method
	// Verify runs the server half of the exchange. remoteHost is the
	// peer's host (from the transport), used by the hostname method.
	Verify(c *Conn, remoteHost string) (identity.Principal, error)
}

// ClientNegotiate offers each authenticator in order until the server
// accepts one, then runs its proof. It returns the proven principal.
func ClientNegotiate(c *Conn, auths []Authenticator) (identity.Principal, error) {
	for _, a := range auths {
		if err := c.WriteLine("auth " + string(a.Method())); err != nil {
			return "", err
		}
		resp, err := c.ReadLine()
		if err != nil {
			return "", err
		}
		switch resp {
		case "yes":
			p, err := a.Prove(c)
			if err != nil {
				return "", err
			}
			// The server confirms the principal it recorded.
			final, err := c.ReadLine()
			if err != nil {
				return "", err
			}
			if !strings.HasPrefix(final, "ok ") {
				return "", fmt.Errorf("%w: %s", ErrRejected, final)
			}
			got := identity.Principal(strings.TrimPrefix(final, "ok "))
			if got != p {
				return "", fmt.Errorf("auth: server recorded %q, client proved %q", got, p)
			}
			return p, nil
		case "no":
			continue
		default:
			return "", fmt.Errorf("auth: unexpected negotiation reply %q", resp)
		}
	}
	if err := c.WriteLine("auth none"); err != nil {
		return "", err
	}
	return "", ErrNoCommonMethod
}

// ServerNegotiate answers the client's proposals using the given
// verifiers and returns the proven principal.
func ServerNegotiate(c *Conn, verifiers map[Method]Verifier, remoteHost string) (identity.Principal, error) {
	for {
		line, err := c.ReadLine()
		if err != nil {
			return "", err
		}
		if !strings.HasPrefix(line, "auth ") {
			return "", fmt.Errorf("auth: expected proposal, got %q", line)
		}
		m := Method(strings.TrimPrefix(line, "auth "))
		if m == "none" {
			return "", ErrNoCommonMethod
		}
		v, ok := verifiers[m]
		if !ok {
			if err := c.WriteLine("no"); err != nil {
				return "", err
			}
			continue
		}
		if err := c.WriteLine("yes"); err != nil {
			return "", err
		}
		p, err := v.Verify(c, remoteHost)
		if err != nil {
			c.WriteLine("failed " + err.Error())
			return "", err
		}
		if !p.Valid() {
			c.WriteLine("failed invalid principal")
			return "", fmt.Errorf("auth: method %s produced invalid principal %q", m, p)
		}
		if err := c.WriteLine("ok " + p.String()); err != nil {
			return "", err
		}
		return p, nil
	}
}
