package auth

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"fmt"
	"strings"
	"time"

	"identitybox/internal/identity"
)

// This file implements the Kerberos-style ticket method: a KDC shares a
// secret key with each service; a client obtains a ticket (user, service,
// expiry, MAC under the service key) and presents it, plus an HMAC over a
// server nonce keyed by the ticket's session key, proving possession.

// Ticket is a service ticket granted by the KDC.
type Ticket struct {
	User       string // e.g. "fred@nowhere.edu"
	Service    string // e.g. "chirp/server.nowhere.edu"
	Expiry     int64  // unix seconds
	SessionKey []byte // shared between client and service via the ticket
	MAC        []byte // binds everything under the service key
}

func ticketMAC(serviceKey []byte, user, service string, expiry int64, session []byte) []byte {
	mac := hmac.New(sha256.New, serviceKey)
	fmt.Fprintf(mac, "%s\x00%s\x00%d\x00", user, service, expiry)
	mac.Write(session)
	return mac.Sum(nil)
}

// KDC is a toy key-distribution center: it knows user passwords (not
// modelled further) and service keys.
type KDC struct {
	Realm       string
	serviceKeys map[string][]byte
}

// NewKDC creates a KDC for a realm.
func NewKDC(realm string) *KDC {
	return &KDC{Realm: realm, serviceKeys: make(map[string][]byte)}
}

// RegisterService creates (or replaces) a service key and returns it;
// the service installs it in its verifier (the keytab).
func (k *KDC) RegisterService(service string) ([]byte, error) {
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return nil, err
	}
	k.serviceKeys[service] = key
	return key, nil
}

// Grant issues a ticket for user to talk to service, valid for ttl.
func (k *KDC) Grant(user, service string, ttl time.Duration) (*Ticket, error) {
	key, ok := k.serviceKeys[service]
	if !ok {
		return nil, fmt.Errorf("auth: unknown service %q", service)
	}
	session := make([]byte, 32)
	if _, err := rand.Read(session); err != nil {
		return nil, err
	}
	expiry := time.Now().Add(ttl).Unix()
	return &Ticket{
		User:       user,
		Service:    service,
		Expiry:     expiry,
		SessionKey: session,
		MAC:        ticketMAC(key, user, service, expiry, session),
	}, nil
}

// KerberosClient authenticates with a ticket.
type KerberosClient struct {
	Ticket *Ticket
}

// Method implements Authenticator.
func (kc *KerberosClient) Method() Method { return MethodKerberos }

// Prove implements Authenticator.
func (kc *KerberosClient) Prove(c *Conn) (p identity.Principal, err error) {
	t := kc.Ticket
	line := fmt.Sprintf("ticket %s %s %d %s %s",
		t.User, t.Service, t.Expiry,
		base64.StdEncoding.EncodeToString(t.SessionKey),
		base64.StdEncoding.EncodeToString(t.MAC))
	if err := c.WriteLine(line); err != nil {
		return "", err
	}
	nonce, err := c.ReadBlob()
	if err != nil {
		return "", err
	}
	mac := hmac.New(sha256.New, t.SessionKey)
	mac.Write(nonce)
	if err := c.WriteBlob(mac.Sum(nil)); err != nil {
		return "", err
	}
	return identity.New(string(MethodKerberos), t.User), nil
}

// KerberosVerifier verifies tickets with the service key (keytab).
type KerberosVerifier struct {
	Service    string
	ServiceKey []byte
}

// Method implements Verifier.
func (kv *KerberosVerifier) Method() Method { return MethodKerberos }

// Verify implements Verifier.
func (kv *KerberosVerifier) Verify(c *Conn, _ string) (identity.Principal, error) {
	line, err := c.ReadLine()
	if err != nil {
		return "", err
	}
	fields := strings.Fields(line)
	if len(fields) != 6 || fields[0] != "ticket" {
		return "", fmt.Errorf("auth: malformed ticket line %q", line)
	}
	user, service := fields[1], fields[2]
	var expiry int64
	if _, err := fmt.Sscanf(fields[3], "%d", &expiry); err != nil {
		return "", err
	}
	session, err := base64.StdEncoding.DecodeString(fields[4])
	if err != nil {
		return "", err
	}
	mac, err := base64.StdEncoding.DecodeString(fields[5])
	if err != nil {
		return "", err
	}
	if service != kv.Service {
		return "", fmt.Errorf("%w: ticket for wrong service %q", ErrRejected, service)
	}
	if !hmac.Equal(mac, ticketMAC(kv.ServiceKey, user, service, expiry, session)) {
		return "", fmt.Errorf("%w: forged ticket", ErrRejected)
	}
	if time.Now().Unix() > expiry {
		return "", fmt.Errorf("%w: ticket expired", ErrRejected)
	}
	// Challenge: prove possession of the session key.
	nonce := make([]byte, 32)
	if _, err := rand.Read(nonce); err != nil {
		return "", err
	}
	if err := c.WriteBlob(nonce); err != nil {
		return "", err
	}
	proof, err := c.ReadBlob()
	if err != nil {
		return "", err
	}
	want := hmac.New(sha256.New, session)
	want.Write(nonce)
	if !hmac.Equal(proof, want.Sum(nil)) {
		return "", fmt.Errorf("%w: session challenge failed", ErrRejected)
	}
	return identity.New(string(MethodKerberos), user), nil
}
