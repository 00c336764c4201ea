// Package pki is the credtaint fixture's stand-in verifier; the
// analyzer treats Verify*-named methods of a pki package as signature
// verification facts, and raw Ed25519 and HMAC calls are allowed only
// here.
package pki

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"time"

	"credtaint/xmldom"
)

type KeyPair struct{ Private ed25519.PrivateKey }

func (KeyPair) VerifyTicket(doc *xmldom.Node) bool { return true }

func (k KeyPair) Sign(msg []byte) []byte { return ed25519.Sign(k.Private, msg) }

var errRejected = errors.New("rejected")

// Sealed stands in for a sealed document: Open checks expiry, then the
// signature.
type Sealed struct {
	NotAfter  time.Time
	Payload   *xmldom.Node
	Signature []byte
}

// ParseSealed decodes raw itself, so its result carries the taint.
func ParseSealed(raw string) (*Sealed, error) {
	root, err := xmldom.ParseString(raw)
	if err != nil {
		return nil, err
	}
	return &Sealed{Payload: root.Child("payload")}, nil
}

func (s *Sealed) Open(pub ed25519.PublicKey, now time.Time) (*xmldom.Node, error) {
	if now.After(s.NotAfter) {
		return nil, errRejected
	}
	if !ed25519.Verify(pub, []byte(s.Payload.Name), s.Signature) {
		return nil, errRejected
	}
	return s.Payload, nil
}

// OpenWire stands in for pki.OpenWire: it checks expiry, then the MAC
// with crypto/hmac's Equal, and returns the payload as received, so its
// callers parse it themselves.
func OpenWire(k KeyPair, raw string, notAfter, now time.Time) (string, error) {
	if now.After(notAfter) {
		return "", errRejected
	}
	mac := hmac.New(sha256.New, k.Private)
	mac.Write([]byte(raw))
	if !hmac.Equal(mac.Sum(nil), k.Private) {
		return "", errRejected
	}
	return raw, nil
}
