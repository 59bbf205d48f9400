package auth

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/base64"
	"fmt"
	"strings"

	"identitybox/internal/identity"
)

// This file implements the GSI-style public-key method: a certificate
// authority signs (subject, public key) pairs; a client proves identity
// by presenting its certificate and signing a server nonce. It is a
// compact stand-in for Globus GSI proxy-certificate authentication —
// what identity boxing consumes is only the distinguished name that
// survives verification.

const gsiKeyBits = 1024 // small keys keep tests fast; not for production

// Cert binds a subject distinguished name to a public key under a CA
// signature.
type Cert struct {
	Subject   string // e.g. "/O=UnivNowhere/CN=Fred"
	Issuer    string // CA name
	PubKeyDER []byte
	Sig       []byte // CA signature over sha256(subject|issuer|pubkey)
}

// line is the certificate's wire form, "cert <subject> <issuer>
// <pubkey-b64> <sig-b64>" (parseCertLine reads it back).
func (c Cert) line() string {
	return fmt.Sprintf("cert %s %s %s %s", c.Subject, c.Issuer,
		base64.StdEncoding.EncodeToString(c.PubKeyDER),
		base64.StdEncoding.EncodeToString(c.Sig))
}

func certDigest(subject, issuer string, pubDER []byte) []byte {
	h := sha256.New()
	h.Write([]byte(subject))
	h.Write([]byte{0})
	h.Write([]byte(issuer))
	h.Write([]byte{0})
	h.Write(pubDER)
	return h.Sum(nil)
}

// CA is a certificate authority: the root of trust grid sites install.
type CA struct {
	Name string
	key  *rsa.PrivateKey
}

// NewCA generates a certificate authority.
func NewCA(name string) (*CA, error) {
	key, err := rsa.GenerateKey(rand.Reader, gsiKeyBits)
	if err != nil {
		return nil, err
	}
	return &CA{Name: name, key: key}, nil
}

// PublicKey returns the CA's verification key.
func (ca *CA) PublicKey() *rsa.PublicKey { return &ca.key.PublicKey }

// Credential is a user's long-lived identity: a key pair plus the CA's
// certificate over it.
type Credential struct {
	Subject string
	Key     *rsa.PrivateKey
	Cert    Cert
}

// Issue creates a credential for the subject DN.
func (ca *CA) Issue(subject string) (*Credential, error) {
	if subject == "" || strings.ContainsAny(subject, " \n") {
		return nil, fmt.Errorf("auth: bad subject %q", subject)
	}
	key, err := rsa.GenerateKey(rand.Reader, gsiKeyBits)
	if err != nil {
		return nil, err
	}
	pubDER, err := x509.MarshalPKIXPublicKey(&key.PublicKey)
	if err != nil {
		return nil, err
	}
	sig, err := rsa.SignPKCS1v15(rand.Reader, ca.key, crypto.SHA256, certDigest(subject, ca.Name, pubDER))
	if err != nil {
		return nil, err
	}
	return &Credential{
		Subject: subject,
		Key:     key,
		Cert:    Cert{Subject: subject, Issuer: ca.Name, PubKeyDER: pubDER, Sig: sig},
	}, nil
}

// GSIClient authenticates with a credential.
type GSIClient struct {
	Cred *Credential
}

// Method implements Authenticator.
func (g *GSIClient) Method() Method { return MethodGlobus }

// Prove implements Authenticator: send the certificate, sign the nonce.
func (g *GSIClient) Prove(c *Conn) (identity.Principal, error) {
	if err := c.WriteLine(g.Cred.Cert.line()); err != nil {
		return "", err
	}
	nonce, err := c.ReadBlob()
	if err != nil {
		return "", err
	}
	digest := sha256.Sum256(nonce)
	sig, err := rsa.SignPKCS1v15(rand.Reader, g.Cred.Key, crypto.SHA256, digest[:])
	if err != nil {
		return "", err
	}
	if err := c.WriteBlob(sig); err != nil {
		return "", err
	}
	return identity.New(string(MethodGlobus), g.Cred.Subject), nil
}

// GSIVerifier verifies GSI clients against a set of trusted CAs.
type GSIVerifier struct {
	// TrustedCAs maps CA name to verification key.
	TrustedCAs map[string]*rsa.PublicKey
	// nonce source, injectable for tests.
	Rand func(b []byte) error
}

// Method implements Verifier.
func (g *GSIVerifier) Method() Method { return MethodGlobus }

// Verify implements Verifier. It accepts either a single long-lived
// certificate ("cert ...") or a proxy delegation chain ("chain N"
// followed by N certificate lines); either way the recorded principal
// is the base subject.
func (g *GSIVerifier) Verify(c *Conn, _ string) (identity.Principal, error) {
	line, err := c.ReadLine()
	if err != nil {
		return "", err
	}
	var (
		pub     *rsa.PublicKey
		subject string
	)
	switch {
	case strings.HasPrefix(line, "chain "):
		var n int
		if _, err := fmt.Sscanf(line, "chain %d", &n); err != nil {
			return "", fmt.Errorf("auth: malformed chain header %q", line)
		}
		// Absurd lengths are rejected outright; plausible-but-too-long
		// chains are drained first so the peer is not left blocked
		// mid-send on a synchronous transport.
		const drainCap = 4 * maxChainLength
		if n <= 0 || n > drainCap {
			return "", fmt.Errorf("%w: bad chain length %d", ErrRejected, n)
		}
		chain := make([]Cert, 0, n)
		var parseErr error
		for i := 0; i < n; i++ {
			certLine, err := c.ReadLine()
			if err != nil {
				return "", err
			}
			cert, err := parseCertLine(certLine)
			if err != nil {
				parseErr = err
				continue
			}
			chain = append(chain, cert)
		}
		if parseErr != nil {
			return "", parseErr
		}
		pub, subject, err = g.verifyChain(chain)
		if err != nil {
			return "", err
		}
	case strings.HasPrefix(line, "cert "):
		cert, err := parseCertLine(line)
		if err != nil {
			return "", err
		}
		caKey, ok := g.TrustedCAs[cert.Issuer]
		if !ok {
			return "", fmt.Errorf("%w: unknown CA %q", ErrRejected, cert.Issuer)
		}
		if err := rsa.VerifyPKCS1v15(caKey, crypto.SHA256,
			certDigest(cert.Subject, cert.Issuer, cert.PubKeyDER), cert.Sig); err != nil {
			return "", fmt.Errorf("%w: bad certificate signature", ErrRejected)
		}
		pub, err = parseRSAPub(cert.PubKeyDER)
		if err != nil {
			return "", err
		}
		subject = cert.Subject
	default:
		return "", fmt.Errorf("auth: malformed credential line %q", line)
	}

	// Challenge: the client must hold the (leaf) private key.
	nonce := make([]byte, 32)
	src := g.Rand
	if src == nil {
		src = func(b []byte) error { _, err := rand.Read(b); return err }
	}
	if err := src(nonce); err != nil {
		return "", err
	}
	if err := c.WriteBlob(nonce); err != nil {
		return "", err
	}
	proof, err := c.ReadBlob()
	if err != nil {
		return "", err
	}
	digest := sha256.Sum256(nonce)
	if err := rsa.VerifyPKCS1v15(pub, crypto.SHA256, digest[:], proof); err != nil {
		return "", fmt.Errorf("%w: challenge failed", ErrRejected)
	}
	return identity.New(string(MethodGlobus), subject), nil
}

// parseCertLine parses "cert <subject> <issuer> <pubkey-b64> <sig-b64>".
func parseCertLine(line string) (Cert, error) {
	fields := strings.Fields(line)
	if len(fields) != 5 || fields[0] != "cert" {
		return Cert{}, fmt.Errorf("auth: malformed certificate line %q", line)
	}
	pubDER, err := base64.StdEncoding.DecodeString(fields[3])
	if err != nil {
		return Cert{}, err
	}
	sig, err := base64.StdEncoding.DecodeString(fields[4])
	if err != nil {
		return Cert{}, err
	}
	return Cert{Subject: fields[1], Issuer: fields[2], PubKeyDER: pubDER, Sig: sig}, nil
}

// sha256Sum returns the SHA-256 digest as a slice.
func sha256Sum(b []byte) []byte {
	d := sha256.Sum256(b)
	return d[:]
}
