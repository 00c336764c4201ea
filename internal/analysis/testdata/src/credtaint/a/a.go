// Package a is the credtaint golden fixture.
package a

import (
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
