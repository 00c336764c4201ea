package pki

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"hash"
	"slices"
	"strings"
	"sync"
	"time"

	"trustvo/internal/xmldom"
)

// A seal is a domain label, a notAfter time and an XML payload under one
// HMAC-SHA256 tag: the trust and resume tickets, the standby ship and
// the replication frame are each one. Seal is where one is made and
// written, EncodeSealed writes one whose tag is already known,
// DecodeSealed reads one inside a document, and OpenWire is the one
// place its label, expiry and tag are checked, over the bytes Seal or
// EncodeSealed wrote. Every party that opens a seal also made it, or
// shares the key pair of the one that did: a controller opens the trust
// tickets it issued, a client its own resume tickets, and the nodes of a
// cluster, which share one key pair, each other's ships and replication
// frames. So a MAC under a key derived from the key pair gives the
// guarantee a signature would.

// Labels domain-separate the sealed formats: a document sealed for one
// use never opens as another, and each label has its own key.
const (
	LabelTicket    = "trustvo-ticket"
	LabelResume    = "trustvo-resume"
	LabelStandby   = "trustvo-standby"
	LabelReplicate = "trustvo-replicate"
)

// ErrBadSeal reports a malformed sealed document or a wrong label, and
// ErrTicketExpired one opened after its notAfter.
var (
	ErrBadSeal       = errors.New("pki: malformed sealed document")
	ErrTicketExpired = errors.New("pki: sealed ticket expired")
)

// labels are the seal labels, in the order of a key pair's seal keys.
var labels = [...]string{LabelTicket, LabelResume, LabelStandby, LabelReplicate}

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
	i := slices.Index(labels[:], label)
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
// UTC (the precision of the wire form): EncodeSealed's layout, whose
// <signature> holds the base64 MAC of label, NUL, notAfter, NUL and the
// payload. The form is written once, into a pooled buffer, where the
// payload is MACed as it lies; the string is the one allocation. A
// caller holding a tree passes its Encode method. k must hold a private
// key, and label must be one of labels.
func Seal(k *KeyPair, label string, notAfter time.Time, encode func(*xmldom.Writer)) string {
	m := k.mac(label)
	if m == nil { // a caller's bug, as a bad key is to ed25519.Sign
		panic("pki: Seal needs a private key and a known label")
	}
	defer m.release()
	notAfter = notAfter.UTC().Truncate(time.Second)
	m.begin(label, notAfter)
	return xmldom.String(func(w *xmldom.Writer) {
		// The MAC lands in m.tag as the payload ends, before EncodeSealed
		// writes the tag.
		EncodeSealed(w, label, notAfter, func(w *xmldom.Writer) {
			w.Tee(m.h, encode)
			m.sum()
		}, m.tag[:])
	})
}

// EncodeSealed writes the one layout of a seal: <sealed label=…
// notAfter=…>, the payload that encode writes, then <signature> holding
// tag in base64, or nothing more when tag is empty. notAfter is written
// in UTC, to the second. Seal writes through it, so the fields of a seal
// written here again give back the bytes that were sealed, which
// OpenWire opens.
func EncodeSealed(w *xmldom.Writer, label string, notAfter time.Time, encode func(*xmldom.Writer), tag []byte) {
	w.Start("sealed")
	w.Attr("label", label)
	w.AttrTime("notAfter", notAfter.UTC(), time.RFC3339)
	encode(w)
	if len(tag) > 0 {
		w.Start("signature")
		w.TextBase64(tag)
		w.End()
	}
	w.End()
}

// DecodeSealed reads the seal whose <sealed> start tag r has just read,
// to its end, and returns its notAfter and its tag, nil when it has no
// <signature>. Its label must be label, and its notAfter RFC 3339 in
// UTC, to the second. Of its children, text and comments counted, the
// first must be the payload element, which payload reads from its start
// tag (a nil payload skips it), and the only other one a <signature>
// whose text is a tag as OpenWire takes it: exactly 44 characters of
// strict base64. Anything else is ErrBadSeal, which comes before
// payload's error. No key is involved: what DecodeSealed returns opens
// through OpenWire, over the bytes EncodeSealed writes from it.
func DecodeSealed(r *xmldom.Reader, label string, payload func(*xmldom.Reader) error) (time.Time, []byte, error) {
	got, raw := r.AttrOr("label", ""), r.AttrOr("notAfter", "")
	notAfter, ok := parseNotAfter(raw)
	switch {
	case r.Name() != "sealed":
		return time.Time{}, nil, fmt.Errorf("%w: expected <sealed>", ErrBadSeal)
	case got != label:
		return time.Time{}, nil, fmt.Errorf("%w: label %q, want %q", ErrBadSeal, got, label)
	case !ok:
		return time.Time{}, nil, fmt.Errorf("%w: notAfter %q", ErrBadSeal, raw)
	}
	kids, shaped, sig := 0, true, ""
	var payloadErr error
	for d := r.Depth(); ; {
		k := r.Next()
		if k == xmldom.NoToken || k == xmldom.EndToken && r.Depth() < d {
			break
		}
		switch {
		case k == xmldom.StartToken && r.Depth() == d+1:
		case (k == xmldom.TextToken || k == xmldom.CommentToken) && r.Depth() == d:
		default:
			continue // not a child of <sealed>
		}
		switch kids++; {
		case k != xmldom.StartToken || kids > 2:
			shaped = false
		case kids == 1 && payload != nil:
			payloadErr = payload(r)
		case kids == 2 && r.Name() == "signature":
			sig = r.Text()
		case kids == 2:
			shaped = false
		}
	}
	tag, tagged := decodeTag(sig)
	switch {
	case kids == 0 || !shaped:
		return time.Time{}, nil, fmt.Errorf("%w: want a payload element and an optional <signature>", ErrBadSeal)
	case kids == 1:
		return notAfter, nil, payloadErr
	case !tagged:
		return time.Time{}, nil, fmt.Errorf("%w: signature is not the base64 of %d bytes", ErrBadSeal, sha256.Size)
	}
	return notAfter, tag[:], payloadErr
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

// Expired is OpenWire's expiry rule, for caches that drop what OpenWire
// refuses.
func Expired(notAfter, now time.Time) bool { return now.After(notAfter) }

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

// decodeTag decodes a tag as the wire form spells it: exactly tagLen
// characters, the strict base64 of sha256.Size bytes. Both decoders
// skip newlines, so the length is checked too.
func decodeTag(text string) (tag [sha256.Size]byte, ok bool) {
	var b64 [tagLen]byte
	var buf [sha256.Size + 1]byte
	n, err := strictBase64.Decode(buf[:], b64[:copy(b64[:], text)])
	return [sha256.Size]byte(buf[:sha256.Size]), len(text) == tagLen && err == nil && n == sha256.Size
}

// OpenWire opens the wire form of a seal and returns its payload, a
// substring of wire, or the first failure, checked in this order:
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
// opens. It is the one check of every label: a ship opens as received,
// and a ticket, which travels inside a document, opens as the bytes
// EncodeSealed writes from the fields DecodeSealed read.
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
	want, ok := decodeTag(sig)
	if !ok {
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
	ok = hmac.Equal(m.sum(), want[:])
	m.release()
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrBadSignature, label)
	}
	return payload, nil
}
