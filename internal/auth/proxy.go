package auth

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"fmt"
	"strings"

	"identitybox/internal/identity"
)

// This file adds GSI proxy certificates: the "single login" mechanism.
// A user signs a short-lived key pair with their long-lived credential,
// producing a delegation chain (CA -> user cert -> proxy cert [-> ...]).
// Jobs carry only the proxy; the long-lived key never leaves home. A
// verifier walks the chain: the CA signature anchors trust, each link
// signs the next, and the principal is the *base* subject — proxies do
// not change who you are, which is exactly what identity boxing needs.

// proxySuffix marks each delegation level, as GSI appends "/CN=proxy".
const proxySuffix = "/CN=proxy"

// ProxyCredential is a delegated credential: a fresh key plus the chain
// of certificates from the user's certificate down to this proxy.
type ProxyCredential struct {
	Subject string // proxy subject, e.g. "/O=U/CN=Fred/CN=proxy"
	Key     *rsa.PrivateKey
	// Chain runs base-first: [user cert, first proxy, ..., this proxy].
	Chain []Cert
}

// BaseSubject reports the identity the chain bottoms out at.
func (pc *ProxyCredential) BaseSubject() string {
	return strings.ReplaceAll(pc.Subject, proxySuffix, "")
}

// signLink signs a child (subject, pubkey) with the parent key: the
// issuer field records the parent *subject*, distinguishing delegation
// links from the CA root signature.
func signLink(parentKey *rsa.PrivateKey, parentSubject, subject string, pubDER []byte) ([]byte, error) {
	return rsa.SignPKCS1v15(rand.Reader, parentKey, crypto.SHA256,
		certDigest(subject, parentSubject, pubDER))
}

// Delegate creates a proxy credential from a long-lived credential.
func (c *Credential) Delegate() (*ProxyCredential, error) {
	key, err := rsa.GenerateKey(rand.Reader, gsiKeyBits)
	if err != nil {
		return nil, err
	}
	pubDER, err := x509.MarshalPKIXPublicKey(&key.PublicKey)
	if err != nil {
		return nil, err
	}
	subject := c.Subject + proxySuffix
	sig, err := signLink(c.Key, c.Subject, subject, pubDER)
	if err != nil {
		return nil, err
	}
	return &ProxyCredential{
		Subject: subject,
		Key:     key,
		Chain: []Cert{
			c.Cert,
			{Subject: subject, Issuer: c.Subject, PubKeyDER: pubDER, Sig: sig},
		},
	}, nil
}

// Delegate extends a proxy chain one more level (delegation onward to
// another service, as grid brokers do).
func (pc *ProxyCredential) Delegate() (*ProxyCredential, error) {
	key, err := rsa.GenerateKey(rand.Reader, gsiKeyBits)
	if err != nil {
		return nil, err
	}
	pubDER, err := x509.MarshalPKIXPublicKey(&key.PublicKey)
	if err != nil {
		return nil, err
	}
	subject := pc.Subject + proxySuffix
	sig, err := signLink(pc.Key, pc.Subject, subject, pubDER)
	if err != nil {
		return nil, err
	}
	chain := make([]Cert, len(pc.Chain), len(pc.Chain)+1)
	copy(chain, pc.Chain)
	chain = append(chain, Cert{Subject: subject, Issuer: pc.Subject, PubKeyDER: pubDER, Sig: sig})
	return &ProxyCredential{Subject: subject, Key: key, Chain: chain}, nil
}

// GSIProxyClient authenticates with a proxy credential. The server
// records the *base* identity, so a job running on a proxy is known by
// the same global name as its owner — consistent global identity.
type GSIProxyClient struct {
	Proxy *ProxyCredential
}

// Method implements Authenticator.
func (g *GSIProxyClient) Method() Method { return MethodGlobus }

// Prove implements Authenticator: send the chain, sign the nonce with
// the proxy key.
func (g *GSIProxyClient) Prove(c *Conn) (identity.Principal, error) {
	if err := c.WriteLine(fmt.Sprintf("chain %d", len(g.Proxy.Chain))); err != nil {
		return "", err
	}
	for _, cert := range g.Proxy.Chain {
		if err := c.WriteLine(cert.line()); err != nil {
			return "", err
		}
	}
	nonce, err := c.ReadBlob()
	if err != nil {
		return "", err
	}
	digest := sha256Sum(nonce)
	sig, err := rsa.SignPKCS1v15(rand.Reader, g.Proxy.Key, crypto.SHA256, digest)
	if err != nil {
		return "", err
	}
	if err := c.WriteBlob(sig); err != nil {
		return "", err
	}
	return identity.New(string(MethodGlobus), g.Proxy.BaseSubject()), nil
}

// maxChainLength bounds delegation depth.
const maxChainLength = 8

// VerifyChain walks a certificate chain: the first link must be signed
// by a trusted CA; each later link by its predecessor's key, with the
// subject extended by exactly one proxy suffix. It returns the leaf key
// and the base subject.
func (g *GSIVerifier) verifyChain(chain []Cert) (*rsa.PublicKey, string, error) {
	if len(chain) == 0 || len(chain) > maxChainLength {
		return nil, "", fmt.Errorf("%w: bad chain length %d", ErrRejected, len(chain))
	}
	base := chain[0]
	caKey, ok := g.TrustedCAs[base.Issuer]
	if !ok {
		return nil, "", fmt.Errorf("%w: unknown CA %q", ErrRejected, base.Issuer)
	}
	if err := rsa.VerifyPKCS1v15(caKey, crypto.SHA256,
		certDigest(base.Subject, base.Issuer, base.PubKeyDER), base.Sig); err != nil {
		return nil, "", fmt.Errorf("%w: bad CA signature", ErrRejected)
	}
	parentKey, err := parseRSAPub(base.PubKeyDER)
	if err != nil {
		return nil, "", err
	}
	parentSubject := base.Subject
	for _, link := range chain[1:] {
		if link.Issuer != parentSubject {
			return nil, "", fmt.Errorf("%w: broken chain at %q", ErrRejected, link.Subject)
		}
		if link.Subject != parentSubject+proxySuffix {
			return nil, "", fmt.Errorf("%w: proxy subject %q does not extend %q", ErrRejected, link.Subject, parentSubject)
		}
		if err := rsa.VerifyPKCS1v15(parentKey, crypto.SHA256,
			certDigest(link.Subject, link.Issuer, link.PubKeyDER), link.Sig); err != nil {
			return nil, "", fmt.Errorf("%w: bad delegation signature at %q", ErrRejected, link.Subject)
		}
		parentKey, err = parseRSAPub(link.PubKeyDER)
		if err != nil {
			return nil, "", err
		}
		parentSubject = link.Subject
	}
	return parentKey, chain[0].Subject, nil
}

func parseRSAPub(der []byte) (*rsa.PublicKey, error) {
	pubAny, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, err
	}
	pub, ok := pubAny.(*rsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("%w: unexpected key type", ErrRejected)
	}
	return pub, nil
}
