package auth

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"identitybox/internal/identity"
)

// This file implements a community authorization service (CAS), the
// admission-policy mechanism the paper cites (Pearlman et al. [32]):
// a community operator maintains membership and issues signed
// assertions granting rights over parts of a resource's namespace.
// A Chirp server that trusts the CAS combines those granted rights with
// its local ACLs — so a site can admit "anyone the physics community
// vouches for, with the rights the community granted" without listing
// every member locally.

// Grant conveys rights over a path subtree.
type Grant struct {
	// PathPrefix is the subtree the grant covers ("/" for everything).
	PathPrefix string `json:"path_prefix"`
	// Rights is an acl rights string such as "rlx".
	Rights string `json:"rights"`
}

// Assertion is a signed statement by a CAS that Subject is a member of
// Community holding Grants until Expiry.
type Assertion struct {
	CAS       string             `json:"cas"`
	Subject   identity.Principal `json:"subject"`
	Community string             `json:"community"`
	Grants    []Grant            `json:"grants"`
	Expiry    int64              `json:"expiry"` // unix seconds
	Sig       []byte             `json:"sig"`
}

// digest computes the signature input: the canonical JSON of the
// assertion with Sig empty.
func (a *Assertion) digest() ([]byte, error) {
	unsigned := *a
	unsigned.Sig = nil
	blob, err := json.Marshal(&unsigned)
	if err != nil {
		return nil, err
	}
	d := sha256.Sum256(blob)
	return d[:], nil
}

// Encode serializes the assertion for the wire.
func (a *Assertion) Encode() ([]byte, error) { return json.Marshal(a) }

// DecodeAssertion parses a wire assertion.
func DecodeAssertion(data []byte) (*Assertion, error) {
	var a Assertion
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("auth: malformed assertion: %w", err)
	}
	return &a, nil
}

// CAS is a community authorization service: membership plus a signing
// key.
type CAS struct {
	Name    string
	key     *rsa.PrivateKey
	members map[identity.Principal]casMember
}

type casMember struct {
	community string
	grants    []Grant
}

// NewCAS creates a community authorization service.
func NewCAS(name string) (*CAS, error) {
	key, err := rsa.GenerateKey(rand.Reader, gsiKeyBits)
	if err != nil {
		return nil, err
	}
	return &CAS{Name: name, key: key, members: make(map[identity.Principal]casMember)}, nil
}

// PublicKey returns the verification key resource providers install.
func (c *CAS) PublicKey() *rsa.PublicKey { return &c.key.PublicKey }

// AddMember enrolls a principal in a community with the given grants.
func (c *CAS) AddMember(p identity.Principal, community string, grants []Grant) {
	c.members[p] = casMember{community: community, grants: grants}
}

// RemoveMember revokes membership; future Issue calls fail.
func (c *CAS) RemoveMember(p identity.Principal) {
	delete(c.members, p)
}

// Issue signs an assertion for a member, valid for ttl.
func (c *CAS) Issue(p identity.Principal, ttl time.Duration) (*Assertion, error) {
	m, ok := c.members[p]
	if !ok {
		return nil, fmt.Errorf("auth: %s is not a member of %s", p, c.Name)
	}
	grants := make([]Grant, len(m.grants))
	copy(grants, m.grants)
	a := &Assertion{
		CAS:       c.Name,
		Subject:   p,
		Community: m.community,
		Grants:    grants,
		Expiry:    time.Now().Add(ttl).Unix(),
	}
	digest, err := a.digest()
	if err != nil {
		return nil, err
	}
	a.Sig, err = rsa.SignPKCS1v15(rand.Reader, c.key, crypto.SHA256, digest)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// CASVerifier checks assertions against a set of trusted communities.
type CASVerifier struct {
	// Trusted maps CAS name to verification key.
	Trusted map[string]*rsa.PublicKey
}

// Verify checks the assertion's signature, issuer trust, and expiry.
func (v *CASVerifier) Verify(a *Assertion) error {
	key, ok := v.Trusted[a.CAS]
	if !ok {
		return fmt.Errorf("%w: untrusted CAS %q", ErrRejected, a.CAS)
	}
	digest, err := a.digest()
	if err != nil {
		return err
	}
	if err := rsa.VerifyPKCS1v15(key, crypto.SHA256, digest, a.Sig); err != nil {
		return fmt.Errorf("%w: bad CAS signature", ErrRejected)
	}
	if time.Now().Unix() > a.Expiry {
		return fmt.Errorf("%w: assertion expired", ErrRejected)
	}
	return nil
}
