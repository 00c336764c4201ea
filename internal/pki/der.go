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
	"slices"
	"sync"
	"time"
	"unicode/utf8"

	"trustvo/internal/xtnl"
)

// This file writes and reads every X.509 certificate pki issues: the VO
// CA and membership tokens (x509.go), and each Authority's CA and
// attribute certificates (x509attr.go). mint writes the DER that
// crypto/x509's CreateCertificate writes for the template the
// certificate describes, following encoding/asn1's rules for Go strings
// and times, but appends into one buffer instead of marshalling by
// reflection. Ed25519 signatures are deterministic, so tests compare the
// two byte for byte. readCertificate reads a certificate back and
// accepts it only as mint writes it: it decodes the fields, has the
// TBSCertificate writer mint signs with write them again, and compares
// the result with the bytes received. crypto/x509 stays in the tests, as
// the oracle for both.

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
	serial int64
	// issuer is the subject of the CA that signs the certificate, and
	// issuerKeyID that CA's subject key id, written as the authority key
	// id unless issuer and subject are the same name. mint sets both.
	issuer      name
	issuerKeyID []byte
	subject     name
	notBefore   time.Time
	notAfter    time.Time
	key         ed25519.PublicKey // the subject's
	usage       x509.KeyUsage     // nonzero; written as a critical extension
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

// caCert is a CA certificate pki minted, kept as written: mint names its
// subject and key id as the issuer of what it signs and checks its key
// against the signing key, and a membership token's check needs its
// validity, which holds the times as written (UTC, whole seconds).
type caCert struct {
	der                 []byte
	subject             name
	keyID               [sha1.Size]byte // the SHA-1 of key
	key                 ed25519.PublicKey
	notBefore, notAfter time.Time
}

// mintCA writes the self-signed CA certificate c, signed with key.
func mintCA(c *certificate, key ed25519.PrivateKey) (caCert, error) {
	der, err := mint(c, nil, key)
	if err != nil {
		return caCert{}, err
	}
	return caCert{
		der:       der,
		subject:   c.subject,
		keyID:     sha1.Sum(c.key),
		key:       c.key,
		notBefore: c.notBefore.UTC().Truncate(time.Second),
		notAfter:  c.notAfter.UTC().Truncate(time.Second),
	}, nil
}

// mint writes c, signed with key, and returns its DER. The issuer is
// parent, or c itself when parent is nil; mint sets c's issuer fields to
// say so. As crypto/x509's CreateCertificate does, mint refuses a
// negative serial, a key that does not match parent's public key, a
// string that is not valid UTF-8 and a time outside years 0 to 9999, and
// checks the signature it made.
func mint(c *certificate, parent *caCert, key ed25519.PrivateKey) ([]byte, error) {
	if c.serial < 0 {
		return nil, errors.New("certificate serial is negative")
	}
	if len(key) != ed25519.PrivateKeySize {
		return nil, errors.New("certificate signing key is not an Ed25519 private key")
	}
	signer := ed25519.PublicKey(key[ed25519.SeedSize:]) // the public half, as key.Public() returns it
	c.issuer, c.issuerKeyID = c.subject, nil
	if parent != nil {
		if !bytes.Equal(parent.key, signer) {
			return nil, errors.New("certificate signing key does not match the issuer's public key")
		}
		c.issuer, c.issuerKeyID = parent.subject, parent.keyID[:]
	}

	w := derWriter{b: make([]byte, 0, c.sizeBound())}
	cert := w.open(tagSequence)
	w.tbs(c)
	if w.err != nil {
		return nil, w.err
	}
	tbs := w.b[cert:] // the TBSCertificate; cert's header is closed last
	sig := ed25519.Sign(key, tbs)
	if !ed25519.Verify(signer, tbs, sig) {
		return nil, errors.New("certificate signature does not verify")
	}
	w.algorithm()
	w.bitString(sig)
	w.close(cert)
	return w.b, nil
}

// tbs writes c's TBSCertificate: mint signs what it writes, and
// readCertificate compares it with what it read.
func (w *derWriter) tbs(c *certificate) {
	tbs := w.open(tagSequence)
	v := w.open(tagVersion)
	w.integer(2) // v3
	w.close(v)
	w.integer(c.serial)
	w.algorithm()
	at := len(w.b)
	w.name(c.issuer)
	issuer := w.b[at:]
	validity := w.open(tagSequence)
	w.time(c.notBefore)
	w.time(c.notAfter)
	w.close(validity)
	at = len(w.b)
	w.name(c.subject)
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
	if !sameName && len(c.issuerKeyID) > 0 {
		e, val = w.openExtension(oidAuthorityKeyID, false)
		aki := w.open(tagSequence)
		w.primitive(tagKeyIdentifier, c.issuerKeyID)
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
}

// sizeBound bounds the DER of c so that mint allocates its buffer once.
// 400 bytes cover the fixed fields, every standard extension and the
// headers of two two-attribute names with the longest length headers
// pki can write.
func (c *certificate) sizeBound() int {
	n := 400 + len(c.issuer.org) + len(c.issuer.cn) + len(c.subject.org) + len(c.subject.cn)
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

// The layouts mint writes, told apart by the extensions that follow the
// standard ones: a CA certificate has none, and a membership token and
// an attribute certificate have these, in this order. An attribute
// certificate leaves out the holder key when its holder has none.
type layout uint8

const (
	layoutCA layout = iota
	layoutMembership
	layoutAttribute
)

var (
	membershipExtensions = []asn1.ObjectIdentifier{oidVOName, oidVORole, oidAttrCredType, oidAttrCredID, oidAttrContent}
	attributeExtensions  = []asn1.ObjectIdentifier{oidAttrCredType, oidAttrCredID, oidAttrSens, oidAttrContent, oidAttrHolderKey}
)

// extensionKinds gives each of pki's own extensions the kind mint writes
// it with, and the contents octets of its OID as the reader meets them.
var extensionKinds = [...]struct {
	id   asn1.ObjectIdentifier
	kind extKind
	der  string
}{
	{id: oidVOName}, {id: oidVORole},
	{id: oidAttrCredType}, {id: oidAttrCredID}, {id: oidAttrSens},
	{id: oidAttrContent, kind: extAttrs},
	{id: oidAttrHolderKey, kind: extRaw},
}

// The contents octets of the OIDs the reader looks for.
var (
	derKeyUsage         = oidContents(oidKeyUsage)
	derBasicConstraints = oidContents(oidBasicConstraints)
	derSubjectKeyID     = oidContents(oidSubjectKeyID)
	derAuthorityKeyID   = oidContents(oidAuthorityKeyID)
	derOrganization     = oidContents(oidOrganization)
	derCommonName       = oidContents(oidCommonName)
	derEd25519          = oidContents(oidEd25519)
)

func init() {
	for i := range extensionKinds {
		extensionKinds[i].der = oidContents(extensionKinds[i].id)
	}
}

func oidContents(id asn1.ObjectIdentifier) string {
	var w derWriter
	w.oid(id)
	return string(w.b[2:])
}

// Decode errors. A certificate that is well-formed DER but not as mint
// writes it fails with errNotAsWritten.
var (
	errCertDER      = errors.New("pki: malformed certificate DER")
	errNotAsWritten = errors.New("pki: certificate is not in a layout pki writes")
)

// A readCert is a certificate read by readCertificate: its fields, the
// layout they make, and its TBSCertificate and signature as received.
// readCerts are pooled, with the arrays certificate.extra and its
// attribute list are cut from and the buffer the check writes into.
type readCert struct {
	certificate
	layout   layout
	tbs, sig []byte
	exts     [len(extensionKinds)]extension
	attrs    []xtnl.Attribute
	w        derWriter

	// s is the TBSCertificate as one string, which every string read
	// from it is cut from, and bad records that a read failed: every
	// read after it fails too, as every write after derWriter's err.
	s   string
	bad bool
}

var readCerts = sync.Pool{New: func() any { return new(readCert) }}

// readCertificate reads der, which must be one certificate in a layout
// mint writes, exactly as mint writes it. Its strings are substrings of
// one copy of the TBSCertificate and its byte slices are cut from der.
// The caller checks its issuer, validity and signature, and releases it
// once it has copied out what it keeps.
func readCertificate(der []byte) (*readCert, error) {
	rc := readCerts.Get().(*readCert)
	if err := rc.read(der); err != nil {
		rc.release()
		return nil, err
	}
	return rc, nil
}

// release hands rc back to the pool, keeping no reference into the
// certificate it read.
func (rc *readCert) release() {
	clear(rc.attrs)
	attrs, b := rc.attrs[:0], rc.w.b[:0]
	if cap(b) > 1<<16 {
		b = nil // a certificate pki writes is far smaller
	}
	*rc = readCert{attrs: attrs, w: derWriter{b: b}}
	readCerts.Put(rc)
}

func (rc *readCert) read(der []byte) error {
	// Certificate ::= SEQUENCE { tbsCertificate, signatureAlgorithm, signature }
	in := derReader{b: der}
	cert := rc.value(&in, tagSequence)
	rc.end(in)
	rest := cert.b
	rc.value(&cert, tagSequence)
	rc.tbs = rest[:len(rest)-len(cert.b)]
	alg := rc.value(&cert, tagSequence)
	sig := rc.value(&cert, tagBitString)
	rc.end(cert)
	if rc.bad {
		return errCertDER
	}
	id := rc.value(&alg, tagOID)
	rc.end(alg)
	if rc.bad || string(id.b) != derEd25519 || len(sig.b) != 1+ed25519.SignatureSize || sig.b[0] != 0 {
		return errors.New("pki: certificate signature is not an Ed25519 signature")
	}
	rc.sig = sig.b[1:]

	// The reader takes from the TBSCertificate only what it decodes into
	// c; the writer refuses the rest, by writing it otherwise.
	c := &rc.certificate
	rc.s = string(rc.tbs)
	r := derReader{b: rc.tbs}
	t := rc.value(&r, tagSequence)
	rc.value(&t, tagVersion)
	c.serial = rc.integer(&t)
	rc.value(&t, tagSequence) // the signature algorithm
	c.issuer = rc.name(&t)
	validity := rc.value(&t, tagSequence)
	c.notBefore = rc.time(&validity)
	c.notAfter = rc.time(&validity)
	rc.end(validity)
	c.subject = rc.name(&t)
	spki := rc.value(&t, tagSequence)
	rc.value(&spki, tagSequence) // the key's algorithm
	key := rc.value(&spki, tagBitString)
	rc.end(spki)
	if len(key.b) != 1+ed25519.PublicKeySize || key.b[0] != 0 {
		rc.bad = true
	} else {
		c.key = key.b[1:]
	}
	rc.extensions(&t)
	rc.end(t)
	if rc.bad {
		return errCertDER
	}
	if !rc.inLayout() {
		return errNotAsWritten
	}
	rc.w.b, rc.w.err = rc.w.b[:0], nil
	rc.w.tbs(c)
	if rc.w.err != nil || !bytes.Equal(rc.w.b, rc.tbs) {
		return errNotAsWritten
	}
	return nil
}

// derReader is what is left to read of a DER value's contents, b, and
// its offset in the TBSCertificate, at.
type derReader struct {
	b  []byte
	at int
}

// value takes the value with the given tag off the front of r and
// returns a reader of its contents. Its length must be definite and in
// the fewest octets.
func (rc *readCert) value(r *derReader, tag byte) derReader {
	b := r.b
	if rc.bad || len(b) < 2 || b[0] != tag {
		rc.bad = true
		return derReader{}
	}
	n, h := int(b[1]), 2
	if n >= 0x80 {
		k := n & 0x7f // the long form: k octets, the first not zero
		if k == 0 || k > 4 || len(b) < 2+k || b[2] == 0 {
			rc.bad = true
			return derReader{}
		}
		n = 0
		for _, o := range b[2 : 2+k] {
			n = n<<8 | int(o)
		}
		h += k
	}
	if n < 0x80 && h > 2 || n > len(b)-h {
		rc.bad = true
		return derReader{}
	}
	v := derReader{b: b[h : h+n], at: r.at + h}
	r.b, r.at = b[h+n:], r.at+h+n
	return v
}

// end fails unless r has been read to its end.
func (rc *readCert) end(r derReader) {
	if len(r.b) != 0 {
		rc.bad = true
	}
}

func (r *derReader) peek(tag byte) bool { return len(r.b) > 0 && r.b[0] == tag }

// str reads a PrintableString or a UTF8String.
func (rc *readCert) str(r *derReader) string {
	tag := byte(tagPrintableString)
	if r.peek(tagUTF8String) {
		tag = tagUTF8String
	}
	v := rc.value(r, tag)
	return rc.s[v.at : v.at+len(v.b)]
}

// integer reads a non-negative INTEGER that fits an int64.
func (rc *readCert) integer(r *derReader) int64 {
	v := rc.value(r, tagInteger)
	if len(v.b) == 0 || len(v.b) > 8 || v.b[0]&0x80 != 0 {
		rc.bad = true
		return 0
	}
	var n int64
	for _, o := range v.b {
		n = n<<8 | int64(o)
	}
	return n
}

// time reads a UTCTime or a GeneralizedTime to the second in UTC.
// time.Date normalizes a field out of its range, so a date the writer
// would not write comes back written otherwise.
func (rc *readCert) time(r *derReader) time.Time {
	tag, n := byte(tagUTCTime), 13
	if r.peek(tagGeneralizedTime) {
		tag, n = tagGeneralizedTime, 15
	}
	v := rc.value(r, tag)
	if len(v.b) != n || v.b[n-1] != 'Z' {
		rc.bad = true
		return time.Time{}
	}
	d := v.b[:n-1]
	for _, c := range d {
		if c < '0' || c > '9' {
			rc.bad = true
			return time.Time{}
		}
	}
	year := 100*twoDigits(d) + twoDigits(d[2:])
	if tag == tagUTCTime {
		year = 1900 + twoDigits(d)
		if year < 1950 {
			year += 100
		}
	}
	d = d[len(d)-10:] // MMDDhhmmss
	return time.Date(year, time.Month(twoDigits(d)), twoDigits(d[2:]),
		twoDigits(d[4:]), twoDigits(d[6:]), twoDigits(d[8:]), 0, time.UTC)
}

// twoDigits reads the decimal digits b[0:2].
func twoDigits(b []byte) int { return int(b[0]-'0')*10 + int(b[1]-'0') }

// name reads an RDNSequence: an Organization, then a CommonName, each
// in an RDN of its own and each optional.
func (rc *readCert) name(r *derReader) name {
	var n name
	seq := rc.value(r, tagSequence)
	for !rc.bad && len(seq.b) > 0 {
		set := rc.value(&seq, tagSet)
		atv := rc.value(&set, tagSequence)
		rc.end(set)
		id := rc.value(&atv, tagOID)
		value := rc.str(&atv)
		rc.end(atv)
		switch {
		case n.cn != "": // nothing follows the CommonName
			rc.bad = true
		case string(id.b) == derOrganization && !n.hasOrg:
			n.org, n.hasOrg = value, true
		case string(id.b) == derCommonName && value != "":
			n.cn = value
		default:
			rc.bad = true
		}
	}
	return n
}

// extensions reads the [3] extensions of a TBSCertificate off the front
// of t, each by its OID as the kind mint writes it with.
func (rc *readCert) extensions(t *derReader) {
	x := rc.value(t, tagExtensions)
	list := rc.value(&x, tagSequence)
	rc.end(x)
	c := &rc.certificate
	c.extra = rc.exts[:0]
	for !rc.bad && len(list.b) > 0 {
		e := rc.value(&list, tagSequence)
		id := rc.value(&e, tagOID)
		if e.peek(tagBoolean) {
			rc.value(&e, tagBoolean) // critical: the writer knows which are
		}
		val := rc.value(&e, tagOctetString)
		rc.end(e)
		switch string(id.b) {
		case derKeyUsage:
			c.usage = rc.keyUsage(&val)
		case derBasicConstraints, derSubjectKeyID:
			c.ca = true // their values are the writer's
			val.b = nil
		case derAuthorityKeyID:
			aki := rc.value(&val, tagSequence)
			c.issuerKeyID = rc.value(&aki, tagKeyIdentifier).b
			rc.end(aki)
		default:
			rc.readExtra(id.b, &val)
		}
		rc.end(val)
	}
}

// keyUsage reads the BIT STRING keyUsage writes, of one or two octets.
func (rc *readCert) keyUsage(r *derReader) x509.KeyUsage {
	v := rc.value(r, tagBitString)
	if len(v.b) < 2 || len(v.b) > 3 || v.b[0] > 7 {
		rc.bad = true
		return 0
	}
	ku := x509.KeyUsage(bits.Reverse8(v.b[1]))
	if len(v.b) == 3 {
		ku |= x509.KeyUsage(bits.Reverse8(v.b[2])) << 8
	}
	if ku == 0 {
		rc.bad = true
	}
	return ku
}

// readExtra reads the value of one of pki's own extensions, whose OID's
// contents octets are id, into c.extra.
func (rc *readCert) readExtra(id []byte, val *derReader) {
	for _, k := range extensionKinds {
		if string(id) != k.der {
			continue
		}
		if len(rc.extra) == len(rc.exts) {
			break
		}
		x := extension{id: k.id, kind: k.kind}
		switch k.kind {
		case extString:
			x.str = rc.str(val)
		case extAttrs:
			seq := rc.value(val, tagSequence)
			start := len(rc.attrs)
			for !rc.bad && len(seq.b) > 0 {
				pair := rc.value(&seq, tagSequence)
				name, value := rc.str(&pair), rc.str(&pair)
				rc.end(pair)
				rc.attrs = append(rc.attrs, xtnl.Attribute{Name: name, Value: value})
			}
			x.attrs = rc.attrs[start:len(rc.attrs):len(rc.attrs)]
		case extRaw:
			x.raw, val.b = val.b, nil
		}
		rc.extra = append(rc.extra, x)
		return
	}
	rc.bad = true
}

// inLayout reports whether c is in one of the layouts mint writes, and
// sets rc's layout to it.
func (rc *readCert) inLayout() bool {
	ids := func(want []asn1.ObjectIdentifier) bool {
		return slices.EqualFunc(rc.extra, want, func(x extension, id asn1.ObjectIdentifier) bool { return x.id.Equal(id) })
	}
	switch {
	case rc.ca:
		rc.layout = layoutCA
		return len(rc.extra) == 0
	case ids(membershipExtensions):
		rc.layout = layoutMembership
		return true
	case ids(attributeExtensions) || ids(attributeExtensions[:len(attributeExtensions)-1]):
		rc.layout = layoutAttribute
		n := len(rc.extra)
		return n < len(attributeExtensions) || len(rc.extra[n-1].raw) == ed25519.PublicKeySize
	}
	return false
}

// issuedBy reports whether c names the CA whose subject and key id
// these are as its issuer. The writer names no key id when subject and
// issuer are the same name.
func (c *certificate) issuedBy(subject name, keyID []byte) bool {
	return c.issuer == subject && (c.subject == c.issuer || bytes.Equal(c.issuerKeyID, keyID))
}

// within reports whether now falls in c's validity window.
func (c *certificate) within(now time.Time) bool {
	return !now.Before(c.notBefore) && !now.After(c.notAfter)
}
