package pki

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha1"
	"crypto/x509"
	"encoding/asn1"
	"errors"
	"fmt"
	"math/bits"
	"time"
	"unicode/utf8"

	"trustvo/internal/xtnl"
)

// This file mints every X.509 certificate pki issues: the VO CA and
// membership tokens (x509.go), and each Authority's CA and attribute
// certificates (x509attr.go). mint writes the DER that crypto/x509's
// CreateCertificate writes for the template the certificate
// describes, following encoding/asn1's rules for Go strings and times,
// but appends into one buffer instead of marshalling by reflection.
// Ed25519 signatures are deterministic, so tests compare the two byte
// for byte. crypto/x509 still parses and verifies everything minted here.

// Object identifiers the writer emits besides pki's own extensions.
var (
	oidEd25519          = asn1.ObjectIdentifier{1, 3, 101, 112}
	oidOrganization     = asn1.ObjectIdentifier{2, 5, 4, 10}
	oidCommonName       = asn1.ObjectIdentifier{2, 5, 4, 3}
	oidSubjectKeyID     = asn1.ObjectIdentifier{2, 5, 29, 14}
	oidKeyUsage         = asn1.ObjectIdentifier{2, 5, 29, 15}
	oidBasicConstraints = asn1.ObjectIdentifier{2, 5, 29, 19}
	oidAuthorityKeyID   = asn1.ObjectIdentifier{2, 5, 29, 35}
)

// DER identifier octets.
const (
	tagBoolean         = 0x01
	tagInteger         = 0x02
	tagBitString       = 0x03
	tagOctetString     = 0x04
	tagOID             = 0x06
	tagUTF8String      = 0x0c
	tagPrintableString = 0x13
	tagUTCTime         = 0x17
	tagGeneralizedTime = 0x18
	tagSequence        = 0x30
	tagSet             = 0x31
	tagVersion         = 0xa0 // [0] EXPLICIT
	tagExtensions      = 0xa3 // [3] EXPLICIT
	tagKeyIdentifier   = 0x80 // [0] IMPLICIT OCTET STRING
)

// certificate is what pki puts in a certificate: the fields its
// x509.Certificate templates used to set. mint derives everything else.
type certificate struct {
	serial    int64
	subject   name
	notBefore time.Time
	notAfter  time.Time
	key       ed25519.PublicKey // the subject's
	usage     x509.KeyUsage     // nonzero; written as a critical extension
	// ca adds a critical basic-constraints extension (cA true, no path
	// length) and a subject key id, the SHA-1 of key.
	ca    bool
	extra []extension
}

// name is a distinguished name with the attributes pki sets, in the
// order pkix.Name.ToRDNSequence writes them: the Organization when
// hasOrg, then the CommonName unless it is empty.
type name struct {
	org    string
	hasOrg bool
	cn     string
}

// An extension is one of pki's own, written after the standard ones in
// the order given and never critical. Its value is str as a DER string
// (the zero kind), attrs as a SEQUENCE OF name/value string pairs, or
// raw as it is, as kind says.
type extension struct {
	id    asn1.ObjectIdentifier
	kind  extKind
	str   string
	attrs []xtnl.Attribute
	raw   []byte
}

type extKind uint8

const (
	extString extKind = iota
	extAttrs
	extRaw
)

// mint writes c, signed with key, and returns its DER. The issuer is
// parent, or c itself when parent is nil. As crypto/x509's
// CreateCertificate does, mint refuses a negative serial, a key that
// does not match parent's public key, a string that is not valid UTF-8
// and a time outside years 0 to 9999, and checks the signature it made.
func mint(c *certificate, parent *x509.Certificate, key ed25519.PrivateKey) ([]byte, error) {
	if c.serial < 0 {
		return nil, errors.New("certificate serial is negative")
	}
	if len(key) != ed25519.PrivateKeySize {
		return nil, errors.New("certificate signing key is not an Ed25519 private key")
	}
	signer := ed25519.PublicKey(key[ed25519.SeedSize:]) // the public half, as key.Public() returns it
	var issuer, issuerKeyID []byte
	if parent != nil {
		if pub, ok := parent.PublicKey.(ed25519.PublicKey); !ok || !bytes.Equal(pub, signer) {
			return nil, errors.New("certificate signing key does not match the issuer's public key")
		}
		issuer, issuerKeyID = parent.RawSubject, parent.SubjectKeyId
	}

	w := derWriter{b: make([]byte, 0, c.sizeBound(len(issuer)))}
	cert := w.open(tagSequence)
	tbs := w.open(tagSequence)
	v := w.open(tagVersion)
	w.integer(2) // v3
	w.close(v)
	w.integer(c.serial)
	w.algorithm()
	at := len(w.b)
	if parent == nil {
		w.name(c.subject)
		issuer = w.b[at:]
	} else {
		w.b = append(w.b, issuer...)
	}
	validity := w.open(tagSequence)
	w.time(c.notBefore)
	w.time(c.notAfter)
	w.close(validity)
	at = len(w.b)
	if parent == nil {
		w.b = append(w.b, issuer...)
	} else {
		w.name(c.subject)
	}
	// x509 names no authority key id when subject and issuer are the same.
	sameName := bytes.Equal(w.b[at:], issuer)
	spki := w.open(tagSequence)
	w.algorithm()
	w.bitString(c.key)
	w.close(spki)

	exts := w.open(tagExtensions)
	list := w.open(tagSequence)
	e, val := w.openExtension(oidKeyUsage, true)
	w.keyUsage(c.usage)
	w.closeExtension(e, val)
	if c.ca {
		e, val = w.openExtension(oidBasicConstraints, true)
		bc := w.open(tagSequence)
		w.b = append(w.b, tagBoolean, 1, 0xff)
		w.close(bc)
		w.closeExtension(e, val)
		keyID := sha1.Sum(c.key)
		e, val = w.openExtension(oidSubjectKeyID, false)
		w.primitive(tagOctetString, keyID[:])
		w.closeExtension(e, val)
	}
	if !sameName && len(issuerKeyID) > 0 {
		e, val = w.openExtension(oidAuthorityKeyID, false)
		aki := w.open(tagSequence)
		w.primitive(tagKeyIdentifier, issuerKeyID)
		w.close(aki)
		w.closeExtension(e, val)
	}
	for i := range c.extra {
		x := &c.extra[i]
		e, val = w.openExtension(x.id, false)
		switch x.kind {
		case extString:
			w.str(x.str)
		case extAttrs:
			seq := w.open(tagSequence)
			for _, attr := range x.attrs {
				pair := w.open(tagSequence)
				w.str(attr.Name)
				w.str(attr.Value)
				w.close(pair)
			}
			w.close(seq)
		case extRaw:
			w.b = append(w.b, x.raw...)
		}
		w.closeExtension(e, val)
	}
	w.close(list)
	w.close(exts)
	w.close(tbs)
	if w.err != nil {
		return nil, w.err
	}

	tbsDER := w.b[tbs-2:] // the tag stays put when close lengthens the header
	sig := ed25519.Sign(key, tbsDER)
	if !ed25519.Verify(signer, tbsDER, sig) {
		return nil, errors.New("certificate signature does not verify")
	}
	w.algorithm()
	w.bitString(sig)
	w.close(cert)
	return w.b, nil
}

// sizeBound bounds the DER of c, issued under an issuer name of
// issuerLen bytes, so that mint allocates its buffer once. 400 bytes
// cover the fixed fields, every standard extension and two-attribute
// names with the longest length headers pki can write.
func (c *certificate) sizeBound(issuerLen int) int {
	n := 400 + issuerLen + 2*(len(c.subject.org)+len(c.subject.cn))
	for _, x := range c.extra {
		n += 24 + len(x.str) + len(x.raw)
		for _, attr := range x.attrs {
			n += 16 + len(attr.Name) + len(attr.Value)
		}
	}
	return n
}

// derWriter appends DER to b. A constructed value is written by open,
// its contents, then close. The first value that cannot be encoded sets
// err; later writes carry on and mint discards the result.
type derWriter struct {
	b   []byte
	err error
}

// open starts a constructed value and returns the offset of its
// contents, for close. It reserves one length octet.
func (w *derWriter) open(tag byte) int {
	w.b = append(w.b, tag, 0)
	return len(w.b)
}

// close writes the length of the value whose contents start at start.
// A length of 128 or more takes the long form, so the contents move
// right to make room for its octets.
func (w *derWriter) close(start int) {
	n := len(w.b) - start
	if n < 0x80 {
		w.b[start-1] = byte(n)
		return
	}
	k := (bits.Len(uint(n)) + 7) / 8
	w.b = append(w.b, make([]byte, k)...)
	copy(w.b[start+k:], w.b[start:start+n])
	w.b[start-1] = 0x80 | byte(k)
	for i := k - 1; i >= 0; i-- {
		w.b[start+i] = byte(n)
		n >>= 8
	}
}

// primitive writes a value whose contents are known.
func (w *derWriter) primitive(tag byte, contents []byte) {
	start := w.open(tag)
	w.b = append(w.b, contents...)
	w.close(start)
}

// integer writes v, which must not be negative, in the fewest octets
// that keep its sign bit clear.
func (w *derWriter) integer(v int64) {
	n := 1
	for u := v; u > 0x7f; u >>= 8 {
		n++
	}
	w.b = append(w.b, tagInteger, byte(n))
	for i := n - 1; i >= 0; i-- {
		w.b = append(w.b, byte(v>>(8*i)))
	}
}

// oid writes an object identifier: the first two arcs as one, then
// each arc in base 128, high bit set on all but its last octet.
func (w *derWriter) oid(id asn1.ObjectIdentifier) {
	start := w.open(tagOID)
	w.base128(id[0]*40 + id[1])
	for _, arc := range id[2:] {
		w.base128(arc)
	}
	w.close(start)
}

func (w *derWriter) base128(v int) {
	for i := (bits.Len(uint(v)) - 1) / 7; i > 0; i-- {
		w.b = append(w.b, 0x80|byte(v>>(7*i)))
	}
	w.b = append(w.b, byte(v)&0x7f)
}

// algorithm writes the Ed25519 AlgorithmIdentifier, which has no
// parameters. Signatures and public keys share it.
func (w *derWriter) algorithm() {
	seq := w.open(tagSequence)
	w.oid(oidEd25519)
	w.close(seq)
}

// bitString writes b as a BIT STRING with no unused bits.
func (w *derWriter) bitString(b []byte) {
	start := w.open(tagBitString)
	w.b = append(w.b, 0)
	w.b = append(w.b, b...)
	w.close(start)
}

// keyUsage writes ku as x509 does: bit i of ku is bit i of the BIT
// STRING, trailing zero bits dropped. ku must not be zero.
func (w *derWriter) keyUsage(ku x509.KeyUsage) {
	a := [2]byte{bits.Reverse8(byte(ku)), bits.Reverse8(byte(ku >> 8))}
	n := 1
	if a[1] != 0 {
		n = 2
	}
	w.b = append(w.b, tagBitString, byte(n+1), byte(bits.TrailingZeros8(a[n-1])))
	w.b = append(w.b, a[:n]...)
}

// openExtension starts an Extension and its OCTET STRING value; the
// value goes between it and closeExtension.
func (w *derWriter) openExtension(id asn1.ObjectIdentifier, critical bool) (ext, value int) {
	ext = w.open(tagSequence)
	w.oid(id)
	if critical {
		w.b = append(w.b, tagBoolean, 1, 0xff)
	}
	return ext, w.open(tagOctetString)
}

func (w *derWriter) closeExtension(ext, value int) {
	w.close(value)
	w.close(ext)
}

// name writes n as an RDNSequence with one attribute per RDN.
func (w *derWriter) name(n name) {
	seq := w.open(tagSequence)
	if n.hasOrg {
		w.attribute(oidOrganization, n.org)
	}
	if n.cn != "" {
		w.attribute(oidCommonName, n.cn)
	}
	w.close(seq)
}

func (w *derWriter) attribute(id asn1.ObjectIdentifier, value string) {
	set := w.open(tagSet)
	seq := w.open(tagSequence)
	w.oid(id)
	w.str(value)
	w.close(seq)
	w.close(set)
}

// str writes s as encoding/asn1 marshals a Go string: a
// PrintableString when every byte is printable, otherwise a UTF8String.
// Marshalling counts neither '*' nor '&' as printable, though
// encoding/asn1's parser accepts both.
func (w *derWriter) str(s string) {
	tag := byte(tagPrintableString)
	for i := 0; i < len(s); i++ {
		if !printable(s[i]) {
			if !utf8.ValidString(s) {
				w.fail(errors.New("certificate string is not valid UTF-8"))
			}
			tag = tagUTF8String
			break
		}
	}
	start := w.open(tag)
	w.b = append(w.b, s...)
	w.close(start)
}

func printable(b byte) bool {
	return 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9' ||
		'\'' <= b && b <= ')' || '+' <= b && b <= '/' ||
		b == ' ' || b == ':' || b == '=' || b == '?'
}

// time writes t in UTC to the second: a UTCTime for years 1950 to
// 2049, otherwise a GeneralizedTime.
func (w *derWriter) time(t time.Time) {
	t = t.UTC()
	year := t.Year()
	switch {
	case 1950 <= year && year < 2050:
		w.b = append(w.b, tagUTCTime, 13)
		w.twoDigits(year % 100)
	case 0 <= year && year <= 9999:
		w.b = append(w.b, tagGeneralizedTime, 15)
		w.twoDigits(year / 100)
		w.twoDigits(year % 100)
	default:
		w.fail(fmt.Errorf("certificate time in year %d is outside years 0 to 9999", year))
		return
	}
	_, month, day := t.Date()
	hour, min, sec := t.Clock()
	w.twoDigits(int(month))
	w.twoDigits(day)
	w.twoDigits(hour)
	w.twoDigits(min)
	w.twoDigits(sec)
	w.b = append(w.b, 'Z')
}

func (w *derWriter) twoDigits(v int) {
	w.b = append(w.b, byte('0'+v/10), byte('0'+v%10))
}

func (w *derWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}
