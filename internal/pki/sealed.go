package pki

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"hash"
	"strings"
	"sync"
	"time"

	"trustvo/internal/xmldom"
)

// Sealed is a domain label, a notAfter time and an XML payload under one
// HMAC-SHA256 tag: the trust and resume tickets and the standby ship are
// each one, so Seal and Open are where their bytes are sealed and
// checked. Every party that opens a seal also made it, or shares the
// key pair of the one that did: a controller opens the trust tickets it
// issued, a client its own resume tickets, and the nodes of a cluster,
// which share one key pair, each other's ships. So a MAC under a key
// derived from the key pair gives the guarantee a signature would.
//
// Sealed is the tree form, for tickets, which travel inside parsed
// documents. A standby ship stays in its wire form: Seal writes it and
// OpenWire opens it as received.
type Sealed struct {
	Label     string
	NotAfter  time.Time
	Payload   *xmldom.Node
	Signature []byte // the MAC, written as <signature>
}

// Labels domain-separate the sealed formats: a document sealed for one
// use never opens as another, and each label has its own key.
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

// labels are the seal labels, in the order of a key pair's seal keys.
var labels = [...]string{LabelTicket, LabelResume, LabelStandby}

// labelIndex returns label's place in labels, or -1.
func labelIndex(label string) int {
	for i, l := range labels {
		if l == label {
			return i
		}
	}
	return -1
}

// sealKeys are the seal keys of one key pair: for each label, a pool of
// HMAC-SHA256 states keyed by HKDF-SHA256 of the pair's Ed25519 seed
// with the label as info, derived once.
type sealKeys [len(labels)]sync.Pool

// deriveSealKeys derives the seal keys of an Ed25519 seed. Each pool
// holds its key through its New function, and no package-level map
// holds the pools: they live as long as the key pair does.
func deriveSealKeys(seed []byte) *sealKeys {
	var sk sealKeys
	for i, label := range labels {
		pool := &sk[i]
		key := hkdfSHA256(nil, seed, label)
		pool.New = func() any { return &macState{h: hmac.New(sha256.New, key[:]), pool: pool} }
	}
	return &sk
}

// hkdfSHA256 returns the first 32 bytes of HKDF-SHA256 (RFC 5869)
// output keying material: Extract under salt, then the first block of
// Expand with info. A nil salt is the RFC's default, HashLen zeros.
func hkdfSHA256(salt, secret []byte, info string) [sha256.Size]byte {
	extract := hmac.New(sha256.New, salt)
	extract.Write(secret)
	expand := hmac.New(sha256.New, extract.Sum(nil))
	expand.Write([]byte(info))
	expand.Write([]byte{1})
	var okm [sha256.Size]byte
	expand.Sum(okm[:0])
	return okm
}

// macState is one pooled HMAC-SHA256 state with its scratch. A slice
// passed to Write escapes, so the bytes it hashes live here rather than
// on the stack, and reusing the state allocates nothing.
type macState struct {
	h    hash.Hash
	pool *sync.Pool
	buf  [512]byte         // the header, then runs of a string payload
	tag  [sha256.Size]byte // the computed MAC
}

// mac returns a pooled MAC state under k's key for label, or nil when k
// holds no Ed25519 private key or label is none of labels.
func (k *KeyPair) mac(label string) *macState {
	i := labelIndex(label)
	if k == nil || i < 0 {
		return nil
	}
	k.sealOnce.Do(func() {
		if len(k.Private) == ed25519.PrivateKeySize {
			k.seal = deriveSealKeys(k.Private.Seed())
		}
	})
	if k.seal == nil {
		return nil
	}
	return k.seal[i].Get().(*macState)
}

// mustMAC is mac for sealing, which a key pair without a private key,
// or an unknown label, cannot do: a caller's bug, as a bad key is to
// ed25519.Sign.
func (k *KeyPair) mustMAC(label string) *macState {
	m := k.mac(label)
	if m == nil {
		panic("pki: Seal needs a private key and a known label")
	}
	return m
}

func (m *macState) release() { m.pool.Put(m) }

// begin starts a MAC over the sealed bytes' header: the label, NUL,
// notAfter in RFC 3339, NUL. The payload comes last and no label or
// timestamp holds a NUL, so no field can be spliced into another.
func (m *macState) begin(label string, notAfter time.Time) {
	m.h.Reset()
	head := append(append(m.buf[:0], label...), 0)
	head = append(notAfter.UTC().AppendFormat(head, time.RFC3339), 0)
	m.h.Write(head)
}

// writeString streams a payload held as a string into the MAC, a
// buffer's worth at a time, without allocating a copy of it.
func (m *macState) writeString(s string) {
	for len(s) > 0 {
		n := copy(m.buf[:], s)
		m.h.Write(m.buf[:n])
		s = s[n:]
	}
}

// sum finishes the MAC.
func (m *macState) sum() []byte { return m.h.Sum(m.tag[:0]) }

// Seal returns the wire form of the payload that encode writes, sealed
// for label under k until notAfter, which is truncated to the second in
// UTC (the precision of the wire form): <sealed label=… notAfter=…>, the
// payload, then <signature> holding the base64 MAC of label, NUL,
// notAfter, NUL and the payload. The form is written once, into a
// pooled buffer, where the payload is MACed as it lies; the string is
// the one allocation. A caller holding a tree passes its Encode method.
// k must hold a private key, and label must be one of labels.
func Seal(k *KeyPair, label string, notAfter time.Time, encode func(*xmldom.Writer)) string {
	m := k.mustMAC(label)
	defer m.release()
	notAfter = notAfter.UTC().Truncate(time.Second)
	return xmldom.String(func(w *xmldom.Writer) {
		w.Start("sealed")
		w.Attr("label", label)
		w.AttrTime("notAfter", notAfter, time.RFC3339)
		m.begin(label, notAfter)
		w.Tee(m.h, encode)
		w.Start("signature")
		w.TextBase64(m.sum())
		w.End()
		w.End()
	})
}

// Seal sets the tree form's Signature to the MAC of its label, notAfter
// and canonical payload under k, after truncating NotAfter to the second
// in UTC as the function Seal does: s then writes the wire form Seal
// writes. k must hold a private key, and the label must be one of
// labels.
func (s *Sealed) Seal(k *KeyPair) {
	m := k.mustMAC(s.Label)
	s.NotAfter = s.NotAfter.UTC().Truncate(time.Second)
	s.Signature = append([]byte(nil), s.tag(m)...)
	m.release()
}

// tag computes the tree form's MAC in m, over the canonical payload.
func (s *Sealed) tag(m *macState) []byte {
	m.begin(s.Label, s.NotAfter)
	m.h.Write(xmldom.Bytes(nil, s.Payload.Encode))
	return m.sum()
}

// Encode writes the wire form: <sealed label=… notAfter=…>, the payload,
// then <signature>base64</signature> when there is a signature.
func (s *Sealed) Encode(w *xmldom.Writer) {
	w.Start("sealed")
	w.Attr("label", s.Label)
	w.AttrTime("notAfter", s.NotAfter.UTC(), time.RFC3339)
	s.Payload.Encode(w)
	if len(s.Signature) > 0 {
		w.Start("signature")
		w.TextBase64(s.Signature)
		w.End()
	}
	w.End()
}

// XML returns the wire form.
func (s *Sealed) XML() string { return xmldom.String(s.Encode) }

// ParseSealed reads the wire form of a tree, checking shape only: one
// payload element, an optional signature (else Signature is nil), and
// notAfter as Seal writes it.
func ParseSealed(n *xmldom.Node) (*Sealed, error) {
	if n == nil || n.Type != xmldom.ElementNode || n.Name != "sealed" {
		return nil, fmt.Errorf("%w: expected <sealed>", ErrBadSeal)
	}
	raw := n.AttrOr("notAfter", "")
	notAfter, ok := parseNotAfter(raw)
	if !ok {
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
		var err error
		if s.Signature, err = base64.StdEncoding.DecodeString(sig.Text()); err != nil {
			return nil, fmt.Errorf("%w: signature: %w", ErrBadSeal, err)
		}
	}
	return s, nil
}

// parseNotAfter reads a notAfter as Seal writes it: RFC 3339 in UTC,
// to the second, and nothing else that parses to the same instant.
func parseNotAfter(raw string) (time.Time, bool) {
	notAfter, err := time.Parse(time.RFC3339, raw)
	var canon [len(time.RFC3339)]byte
	if err != nil || string(notAfter.UTC().AppendFormat(canon[:0], time.RFC3339)) != raw {
		return time.Time{}, false
	}
	return notAfter, true
}

// Expired is Open's expiry rule, for caches that drop what Open refuses.
func Expired(notAfter, now time.Time) bool { return now.After(notAfter) }

// Open returns the payload sealed for label, or the first failure: a
// wrong label is ErrBadSeal; now after NotAfter is ErrTicketExpired,
// before any MAC work; a key pair that is nil or holds no private key,
// and a missing, malformed or wrong signature, is ErrBadSignature. The
// MAC covers the re-serialized payload, so a parsed document opens when
// its canonical form was sealed.
func (s *Sealed) Open(k *KeyPair, label string, now time.Time) (*xmldom.Node, error) {
	if s.Label != label {
		return nil, fmt.Errorf("%w: label %q, want %q", ErrBadSeal, s.Label, label)
	}
	if Expired(s.NotAfter, now) {
		return nil, fmt.Errorf("%w: %s notAfter %s", ErrTicketExpired, label, s.NotAfter.UTC().Format(time.RFC3339))
	}
	m := k.mac(label)
	if m == nil {
		return nil, fmt.Errorf("%w: %s", ErrBadSignature, label)
	}
	ok := hmac.Equal(s.tag(m), s.Signature)
	m.release()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrBadSignature, label)
	}
	return s.Payload, nil
}

// The canonical envelope of a wire form, around its label, notAfter,
// payload and MAC; the MAC is tagLen base64 characters.
const (
	wireHead     = `<sealed label="`
	wireNotAfter = ` notAfter="`
	wireSigOpen  = `<signature>`
	wireTail     = `</signature></sealed>`
	tagLen       = (sha256.Size + 2) / 3 * 4
)

// strictBase64 decodes only the canonical encoding: the lenient decoder
// takes two final characters that differ in their padding bits to the
// same bytes.
var strictBase64 = base64.StdEncoding.Strict()

// OpenWire opens the wire form of a seal as received and returns its
// payload, a substring of wire, or the first failure, checked in Open's
// order:
//
//  1. wire must be the canonical envelope byte for byte: <sealed
//     label="L" notAfter="T">, the payload, <signature>B</signature>
//     and </sealed>, where L is label, T is canonical RFC 3339 in UTC
//     and B is the 44-character base64 of 32 bytes, decoded strictly;
//     anything else is ErrBadSeal;
//  2. now after T is ErrTicketExpired, before any MAC work;
//  3. the MAC over the payload bytes where they lie in wire must equal
//     B's bytes under k's key for label, else ErrBadSignature, as for a
//     k that is nil or holds no private key.
//
// The envelope parses one way only, so a ship whose bytes differ from
// the ones sealed in any place fails: nothing but the sealed bytes
// opens.
func OpenWire(k *KeyPair, wire, label string, now time.Time) (string, error) {
	rest, ok := strings.CutPrefix(wire, wireHead)
	if !ok {
		return "", fmt.Errorf("%w: expected <sealed label=", ErrBadSeal)
	}
	got, rest, _ := strings.Cut(rest, `"`)
	if got != label {
		return "", fmt.Errorf("%w: label %q, want %q", ErrBadSeal, got, label)
	}
	rest, ok = strings.CutPrefix(rest, wireNotAfter)
	if !ok {
		return "", fmt.Errorf("%w: expected notAfter after the label", ErrBadSeal)
	}
	raw, rest, _ := strings.Cut(rest, `"`)
	notAfter, ok := parseNotAfter(raw)
	if !ok {
		return "", fmt.Errorf("%w: notAfter %q", ErrBadSeal, raw)
	}
	rest, ok = strings.CutPrefix(rest, ">")
	body, ok2 := strings.CutSuffix(rest, wireTail)
	if !ok || !ok2 || len(body) < len(wireSigOpen)+tagLen {
		return "", fmt.Errorf("%w: not a canonical sealed envelope", ErrBadSeal)
	}
	sig := body[len(body)-tagLen:]
	payload, ok := strings.CutSuffix(body[:len(body)-tagLen], wireSigOpen)
	if !ok {
		return "", fmt.Errorf("%w: want <signature> after the payload", ErrBadSeal)
	}
	var b64 [tagLen]byte
	var want [sha256.Size + 1]byte
	if n, err := strictBase64.Decode(want[:], b64[:copy(b64[:], sig)]); err != nil || n != sha256.Size {
		return "", fmt.Errorf("%w: signature is not the base64 of %d bytes", ErrBadSeal, sha256.Size)
	}
	if Expired(notAfter, now) {
		return "", fmt.Errorf("%w: %s notAfter %s", ErrTicketExpired, label, raw)
	}
	m := k.mac(label)
	if m == nil {
		return "", fmt.Errorf("%w: %s", ErrBadSignature, label)
	}
	m.begin(label, notAfter)
	m.writeString(payload)
	ok = hmac.Equal(m.sum(), want[:sha256.Size])
	m.release()
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrBadSignature, label)
	}
	return payload, nil
}
