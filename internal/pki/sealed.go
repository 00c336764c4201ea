package pki

import (
	"crypto/ed25519"
	"encoding/base64"
	"errors"
	"fmt"
	"time"

	"trustvo/internal/xmldom"
)

// Sealed is a domain label, a notAfter time and an XML payload under one
// Ed25519 signature: the trust and resume tickets and the standby ship
// are each one, so Seal and Open are where their bytes are signed and checked.
//
// A parsed or hand-built Sealed holds its payload as a tree in Payload.
// One from Seal holds the payload's encode method instead, and Payload
// is nil: it writes the wire form without building a tree, and stays
// valid as long as that method does.
type Sealed struct {
	Label     string
	NotAfter  time.Time
	Payload   *xmldom.Node
	Signature []byte

	encode func(*xmldom.Writer) // the payload's layout, set by Seal
}

// Labels domain-separate the sealed formats: a document sealed for one
// use never opens as another.
const (
	LabelTicket  = "trustvo-ticket"
	LabelResume  = "trustvo-resume"
	LabelStandby = "trustvo-standby"
)

// ErrBadSeal reports a malformed sealed document or a wrong label, and
// ErrTicketExpired one opened after its notAfter.
var (
	ErrBadSeal       = errors.New("pki: malformed sealed document")
	ErrTicketExpired = errors.New("pki: sealed ticket expired")
)

// Seal signs the payload that encode writes for label under k, valid
// until notAfter, which is truncated to the second in UTC (the precision
// of the wire form). A caller holding a tree passes its Encode method.
func Seal(k *KeyPair, label string, notAfter time.Time, encode func(*xmldom.Writer)) *Sealed {
	s := &Sealed{Label: label, NotAfter: notAfter.UTC().Truncate(time.Second), encode: encode}
	s.Signature = k.Sign(s.signedBytes())
	return s
}

// encodePayload writes the payload: through Seal's encode method, else
// the tree.
func (s *Sealed) encodePayload(w *xmldom.Writer) {
	if s.encode != nil {
		s.encode(w)
		return
	}
	s.Payload.Encode(w)
}

// signedBytes is the label, NUL, notAfter in RFC 3339, NUL, and the
// canonical payload. The payload comes last and no label or timestamp
// holds a NUL, so no field can be spliced into another.
func (s *Sealed) signedBytes() []byte {
	var head [64]byte
	h := append(append(head[:0], s.Label...), 0)
	h = append(s.NotAfter.UTC().AppendFormat(h, time.RFC3339), 0)
	return xmldom.Bytes(h, s.encodePayload)
}

// Encode writes the wire form: <sealed label=… notAfter=…>, the payload,
// then <signature>base64</signature> when there is a signature.
func (s *Sealed) Encode(w *xmldom.Writer) {
	w.Start("sealed")
	w.Attr("label", s.Label)
	w.AttrTime("notAfter", s.NotAfter.UTC(), time.RFC3339)
	s.encodePayload(w)
	if len(s.Signature) > 0 {
		w.Start("signature")
		w.TextBase64(s.Signature)
		w.End()
	}
	w.End()
}

// XML returns the wire form.
func (s *Sealed) XML() string { return xmldom.String(s.Encode) }

// ParseSealed reads the wire form, checking shape only: one payload
// element, an optional signature (else Signature is nil), and notAfter
// as Seal writes it.
func ParseSealed(n *xmldom.Node) (*Sealed, error) {
	if n == nil || n.Type != xmldom.ElementNode || n.Name != "sealed" {
		return nil, fmt.Errorf("%w: expected <sealed>", ErrBadSeal)
	}
	raw := n.AttrOr("notAfter", "")
	notAfter, err := time.Parse(time.RFC3339, raw)
	var canon [len(time.RFC3339)]byte
	if err != nil || string(notAfter.UTC().AppendFormat(canon[:0], time.RFC3339)) != raw {
		return nil, fmt.Errorf("%w: notAfter %q", ErrBadSeal, raw)
	}
	kids := n.Children
	if len(kids) == 0 || len(kids) > 2 || kids[0].Type != xmldom.ElementNode {
		return nil, fmt.Errorf("%w: want a payload element and an optional signature", ErrBadSeal)
	}
	s := &Sealed{Label: n.AttrOr("label", ""), NotAfter: notAfter, Payload: kids[0]}
	if len(kids) == 2 {
		sig := kids[1]
		if sig.Type != xmldom.ElementNode || sig.Name != "signature" {
			return nil, fmt.Errorf("%w: want <signature> after the payload", ErrBadSeal)
		}
		if s.Signature, err = base64.StdEncoding.DecodeString(sig.Text()); err != nil {
			return nil, fmt.Errorf("%w: signature: %w", ErrBadSeal, err)
		}
	}
	return s, nil
}

// Expired is Open's expiry rule, for caches that drop what Open refuses.
func Expired(notAfter, now time.Time) bool { return now.After(notAfter) }

// Open returns the payload sealed for label, or the first failure: a
// wrong label is ErrBadSeal; now after NotAfter is ErrTicketExpired,
// before any signature work; a nil key or a missing, malformed or wrong
// signature is ErrBadSignature. The signature covers the re-serialized
// payload, so a parsed document opens when its canonical form was sealed.
func (s *Sealed) Open(pub ed25519.PublicKey, label string, now time.Time) (*xmldom.Node, error) {
	if s.Label != label {
		return nil, fmt.Errorf("%w: label %q, want %q", ErrBadSeal, s.Label, label)
	}
	if Expired(s.NotAfter, now) {
		return nil, fmt.Errorf("%w: %s notAfter %s", ErrTicketExpired, label, s.NotAfter.UTC().Format(time.RFC3339))
	}
	if len(pub) != ed25519.PublicKeySize || !ed25519.Verify(pub, s.signedBytes(), s.Signature) {
		return nil, fmt.Errorf("%w: %s", ErrBadSignature, label)
	}
	return s.Payload, nil
}
