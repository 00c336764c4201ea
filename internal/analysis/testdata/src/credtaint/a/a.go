// Package a is the credtaint golden fixture.
package a

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"time"

	"credtaint/pki"
	"credtaint/xmldom"
)

type svc struct{}

func (svc) AdoptSessionDoc(doc *xmldom.Node) (int, error) { return 0, nil }

func adoptUnverified(s svc, raw string) {
	doc, _ := xmldom.ParseString(raw)
	s.AdoptSessionDoc(doc) // want "reaches AdoptSessionDoc without signature verification"
}

// adoptBody parses a request body the way the wsrpc handlers do.
func adoptBody(s svc, body []byte) {
	doc, _ := xmldom.ParseBytes(body)
	s.AdoptSessionDoc(doc) // want "reaches AdoptSessionDoc without signature verification"
}

func adoptNoExpiry(s svc, k pki.KeyPair, raw string) {
	doc, _ := xmldom.ParseString(raw)
	if !k.VerifyTicket(doc) {
		return
	}
	s.AdoptSessionDoc(doc) // want "reaches AdoptSessionDoc without an expiry check"
}

func adoptWrongOrder(s svc, k pki.KeyPair, raw string, exp time.Time) {
	doc, _ := xmldom.ParseString(raw)
	if !k.VerifyTicket(doc) {
		return
	}
	if time.Now().After(exp) {
		return
	}
	s.AdoptSessionDoc(doc) // want "signature verified before the expiry check"
}

// adoptGuarded checks expiry first, then the signature: the invariant.
func adoptGuarded(s svc, k pki.KeyPair, raw string, exp time.Time) {
	doc, _ := xmldom.ParseString(raw)
	if time.Now().After(exp) {
		return
	}
	if !k.VerifyTicket(doc) {
		return
	}
	s.AdoptSessionDoc(doc)
}

var errRejected = errors.New("rejected")

// checkTicket is a sanitizer: a callee performing both checks makes its
// result trusted at every call site.
func checkTicket(k pki.KeyPair, raw string, exp time.Time) (*xmldom.Node, error) {
	doc, err := xmldom.ParseString(raw)
	if err != nil {
		return nil, err
	}
	if time.Now().After(exp) {
		return nil, errRejected
	}
	if !k.VerifyTicket(doc) {
		return nil, errRejected
	}
	return doc, nil
}

func adoptSanitized(s svc, k pki.KeyPair, raw string, exp time.Time) {
	doc, err := checkTicket(k, raw, exp)
	if err != nil {
		return
	}
	s.AdoptSessionDoc(doc)
}

// adoptHandRolled checks expiry and then the signature, the right order,
// but with its own signed bytes outside pki.
func adoptHandRolled(s svc, pub ed25519.PublicKey, raw string, sig []byte, exp time.Time) {
	doc, _ := xmldom.ParseString(raw)
	if time.Now().After(exp) {
		return
	}
	if !ed25519.Verify(pub, []byte(raw), sig) { // want "ed25519.Verify outside package pki: sign and verify tickets through pki.Seal/Open"
		return
	}
	s.AdoptSessionDoc(doc)
}

func signHandRolled(k pki.KeyPair, doc *xmldom.Node) []byte {
	return k.Sign([]byte(doc.Name)) // want "pki.KeyPair.Sign outside package pki"
}

// adoptSealed adopts through the one sanitizer: Open checks expiry, then
// the signature.
func adoptSealed(s svc, pub ed25519.PublicKey, raw string) {
	sealed, err := pki.ParseSealed(raw)
	if err != nil {
		return
	}
	doc, err := sealed.Open(pub, time.Now())
	if err != nil {
		return
	}
	s.AdoptSessionDoc(doc)
}

// adoptWire opens a seal as received and parses the payload OpenWire
// returned: its MAC check is the verification, after its expiry check.
func adoptWire(s svc, k pki.KeyPair, raw string, exp time.Time) {
	payload, err := pki.OpenWire(k, raw, exp, time.Now())
	if err != nil {
		return
	}
	doc, _ := xmldom.ParseString(payload)
	s.AdoptSessionDoc(doc)
}

// adoptHandMAC checks expiry and then a MAC, the right order, but with
// its own MAC outside pki.
func adoptHandMAC(s svc, key []byte, raw string, tag []byte, exp time.Time) {
	doc, _ := xmldom.ParseString(raw)
	if time.Now().After(exp) {
		return
	}
	mac := hmac.New(sha256.New, key) // want "hmac.New outside package pki"
	mac.Write([]byte(raw))
	if !hmac.Equal(mac.Sum(nil), tag) { // want "hmac.Equal outside package pki"
		return
	}
	s.AdoptSessionDoc(doc)
}

func adoptSealedUnopened(s svc, raw string) {
	sealed, err := pki.ParseSealed(raw)
	if err != nil {
		return
	}
	s.AdoptSessionDoc(sealed.Payload) // want "reaches AdoptSessionDoc without signature verification"
}

// adoptRead decodes the session document through a Reader, as the
// exchange and standby paths read bodies.
func adoptRead(s svc, raw string) {
	r := xmldom.NewReader(raw)
	if !r.Child(0) {
		return
	}
	doc := r.Node()
	r.Close()
	s.AdoptSessionDoc(doc) // want "reaches AdoptSessionDoc without signature verification"
}

// adoptWalked walks a received tree through a Reader.
func adoptWalked(s svc, body []byte) {
	tree, _ := xmldom.ParseBytes(body)
	s.AdoptSessionDoc(xmldom.NewNodeReader(tree).Node()) // want "reaches AdoptSessionDoc without signature verification"
}

// relay returns what it decodes; taint composes through it.
func relay(raw string) *xmldom.Node {
	doc, _ := xmldom.ParseString(raw)
	return doc
}

func adoptRelayed(s svc, raw string) {
	s.AdoptSessionDoc(relay(raw)) // want "reaches AdoptSessionDoc without signature verification"
}

// locally built documents are not tainted.
func adoptLocal(s svc) {
	s.AdoptSessionDoc(&xmldom.Node{Name: "tnSession"})
}

func adoptAllowed(s svc, raw string) {
	doc, _ := xmldom.ParseString(raw)
	s.AdoptSessionDoc(doc) //lint:allow credtaint fixture replays a locally journaled snapshot
}
