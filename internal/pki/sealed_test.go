package pki

import (
	"bytes"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"strings"
	"testing"
	"time"

	"trustvo/internal/xmldom"
)

// fixedKeys returns a key pair derived from seed, so fuzz failures
// reproduce.
func fixedKeys(seed byte) *KeyPair {
	priv := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{seed}, ed25519.SeedSize))
	return &KeyPair{Public: priv.Public().(ed25519.PublicKey), Private: priv}
}

// encodeSealed writes a seal's fields through EncodeSealed.
func encodeSealed(label string, notAfter time.Time, payload *xmldom.Node, tag []byte) string {
	return xmldom.String(func(w *xmldom.Writer) { EncodeSealed(w, label, notAfter, payload.Encode, tag) })
}

// decodeCarried reads the seal at the root of doc as a document that
// carries one is read, through DecodeSealed, with its payload as a tree,
// over doc's bytes and over its parsed tree; both must agree.
func decodeCarried(t *testing.T, doc, label string) (notAfter time.Time, payload *xmldom.Node, tag []byte, err error) {
	t.Helper()
	r := xmldom.NewReader(doc)
	r.Child(0)
	notAfter, tag, err = DecodeSealed(r, label, func(r *xmldom.Reader) error { payload = r.Node(); return nil })
	root, perr := xmldom.ParseString(doc)
	if cerr := r.Close(); cerr != nil || perr != nil {
		if (cerr == nil) != (perr == nil) {
			t.Fatalf("%q: the Reader reports %v, the parse %v", doc, cerr, perr)
		}
		return time.Time{}, nil, nil, cerr
	}
	var fromTree *xmldom.Node
	tr := xmldom.NewNodeReader(root)
	tr.Child(0)
	treeAt, treeTag, treeErr := DecodeSealed(tr, label, func(r *xmldom.Reader) error { fromTree = r.Node(); return nil })
	tr.Close()
	if (err == nil) != (treeErr == nil) || err != nil && err.Error() != treeErr.Error() ||
		!notAfter.Equal(treeAt) || !bytes.Equal(tag, treeTag) || err == nil && !xmldom.Equal(payload, fromTree) {
		t.Fatalf("%q: decoded over bytes to %v, %x, %v; over the tree to %v, %x, %v", doc, notAfter, tag, err, treeAt, treeTag, treeErr)
	}
	return notAfter, payload, tag, err
}

// openCarried decodes the seal at the root of doc and opens the bytes
// EncodeSealed writes from what it decoded, as a ticket is opened.
func openCarried(t *testing.T, doc, label string, k *KeyPair, now time.Time) (*xmldom.Node, error) {
	t.Helper()
	notAfter, payload, tag, err := decodeCarried(t, doc, label)
	if err != nil {
		return nil, err
	}
	if _, err := OpenWire(k, encodeSealed(label, notAfter, payload, tag), label, now); err != nil {
		return nil, err
	}
	return payload, nil
}

// TestSealedOpenOrder: a seal's fields, decoded and written again
// through EncodeSealed, open in OpenWire's order, and every field is
// covered: a changed payload or notAfter no longer opens.
func TestSealedOpenOrder(t *testing.T) {
	keys, other := fixedKeys(1), fixedKeys(2)
	payload := xmldom.NewElement("tnSession").SetAttr("id", "s1")
	notAfter := time.Now().Add(time.Hour)
	wire := Seal(keys, LabelStandby, notAfter, payload.Encode)
	at, got, tag, err := decodeCarried(t, wire, LabelStandby)
	if err != nil || !xmldom.Equal(got, payload) || len(tag) != 32 {
		t.Fatalf("decoded %v, %x, %v", got, tag, err)
	}
	if !at.Equal(notAfter.UTC().Truncate(time.Second)) || at.Location() != time.UTC {
		t.Fatalf("notAfter = %v, want %v truncated to the second in UTC", at, notAfter)
	}
	if again := encodeSealed(LabelStandby, at, got, tag); again != wire {
		t.Fatalf("fields re-encode to %s, sealed %s", again, wire)
	}
	now := time.Now()
	late := notAfter.Add(time.Hour)
	public := &KeyPair{Public: keys.Public}
	for _, c := range []struct {
		name  string
		doc   string
		keys  *KeyPair
		label string
		now   time.Time
		want  error
	}{
		{"valid", wire, keys, LabelStandby, now, nil},
		{"wrong label before expiry", wire, other, LabelResume, late, ErrBadSeal},
		{"expiry before signature", wire, other, LabelStandby, late, ErrTicketExpired},
		{"expired under nil key", wire, nil, LabelStandby, late, ErrTicketExpired},
		{"nil key", wire, nil, LabelStandby, now, ErrBadSignature},
		{"wrong key", wire, other, LabelStandby, now, ErrBadSignature},
		{"missing signature", encodeSealed(LabelStandby, at, payload, nil), keys, LabelStandby, now, ErrBadSeal},
		{"malformed signature before expiry", encodeSealed(LabelStandby, at, payload, tag[:10]), keys, LabelStandby, late, ErrBadSeal},
		{"public half only", wire, public, LabelStandby, now, ErrBadSignature},
		{"moved notAfter", encodeSealed(LabelStandby, at.Add(time.Second), payload, tag), keys, LabelStandby, now, ErrBadSignature},
		{"edited payload", encodeSealed(LabelStandby, at, xmldom.NewElement("tnSession").SetAttr("id", "s2"), tag), keys, LabelStandby, now, ErrBadSignature},
	} {
		got, err := openCarried(t, c.doc, c.label, c.keys, c.now)
		if !errors.Is(err, c.want) || (c.want == nil) != (got != nil) {
			t.Errorf("%s: opened %v, %v; want error %v", c.name, got, err, c.want)
		}
	}
}

// TestOpenWireOrder: the wire form keeps the tree form's order of
// checks and errors, and each label has its own key.
func TestOpenWireOrder(t *testing.T) {
	keys, other := fixedKeys(1), fixedKeys(2)
	payload := xmldom.NewElement("tnSession").SetAttr("id", "s1")
	notAfter := time.Now().Add(time.Hour)
	wire := Seal(keys, LabelStandby, notAfter, payload.Encode)
	now := time.Now()
	late := notAfter.Add(time.Hour)
	unsigned := encodeSealed(LabelStandby, notAfter, payload, nil)
	for _, c := range []struct {
		name  string
		wire  string
		keys  *KeyPair
		label string
		now   time.Time
		want  error
	}{
		{"valid", wire, keys, LabelStandby, now, nil},
		{"wrong label before expiry", wire, other, LabelResume, late, ErrBadSeal},
		{"unsigned before expiry", unsigned, other, LabelStandby, late, ErrBadSeal},
		{"expiry before MAC", wire, other, LabelStandby, late, ErrTicketExpired},
		{"expired under nil key", wire, nil, LabelStandby, late, ErrTicketExpired},
		{"nil key", wire, nil, LabelStandby, now, ErrBadSignature},
		{"public half only", wire, &KeyPair{Public: keys.Public}, LabelStandby, now, ErrBadSignature},
		{"wrong key", wire, other, LabelStandby, now, ErrBadSignature},
		{"another label's key", strings.Replace(wire, LabelStandby, LabelResume, 1), keys, LabelResume, now, ErrBadSignature},
	} {
		got, err := OpenWire(c.keys, c.wire, c.label, c.now)
		if !errors.Is(err, c.want) || (c.want == nil) != (got != "") {
			t.Errorf("%s: OpenWire = %q, %v; want error %v", c.name, got, err, c.want)
		}
	}
	got, err := OpenWire(keys, wire, LabelStandby, now)
	if err != nil || got != payload.XML() || !strings.Contains(wire, got) {
		t.Fatalf("OpenWire = %q, %v; want the payload %s as it lies in the wire form", got, err, payload.XML())
	}
}

// TestOpenWireIsStrict: only the envelope Seal writes opens. The lenient
// base64 decoder takes a tag whose padding bits differ to the same 32
// bytes, and a parse takes many spellings of one document; neither
// opens here.
func TestOpenWireIsStrict(t *testing.T) {
	keys := fixedKeys(1)
	payload := xmldom.NewElement("tnSession").SetAttr("id", "s1").SetAttr("lastSeq", "2")
	payload.AppendChild(xmldom.NewElement("lastReply").AppendChild(xmldom.NewText("hello")))
	wire := Seal(keys, LabelStandby, time.Now().Add(time.Hour), payload.Encode)
	now := time.Now()
	if _, err := OpenWire(keys, wire, LabelStandby, now); err != nil {
		t.Fatal(err)
	}
	tag := wire[len(wire)-len(wireTail)-tagLen : len(wire)-len(wireTail)]
	last := strings.IndexByte(base64Alphabet, tag[tagLen-2])
	flipped := tag[:tagLen-2] + string(base64Alphabet[last^1]) + "="
	if a, err := base64.StdEncoding.DecodeString(tag); err != nil {
		t.Fatal(err)
	} else if b, err := base64.StdEncoding.DecodeString(flipped); err != nil || !bytes.Equal(a, b) {
		t.Fatalf("lenient base64 reads %s and %s apart: %v", tag, flipped, err)
	}
	for name, m := range map[string]string{
		"padding bits":       strings.Replace(wire, tag, flipped, 1),
		"missing padding":    strings.Replace(wire, tag, tag[:tagLen-1], 1),
		"XML declaration":    `<?xml version="1.0"?>` + wire,
		"trailing newline":   wire + "\n",
		"attribute quotes":   strings.Replace(wire, `label="trustvo-standby"`, `label='trustvo-standby'`, 1),
		"attribute order":    strings.Replace(wire, `label="trustvo-standby" notAfter=`, `notAfter=`, 1),
		"space in the tag":   strings.Replace(wire, `<sealed label=`, `<sealed  label=`, 1),
		"notAfter offset":    strings.Replace(wire, `Z">`, `+00:00">`, 1),
		"empty end tag":      strings.Replace(wire, `</signature></sealed>`, `</signature></sealed >`, 1),
		"signature attached": strings.Replace(wire, `<signature>`, `<signature >`, 1),
	} {
		if got, err := OpenWire(keys, m, LabelStandby, now); !errors.Is(err, ErrBadSeal) {
			t.Errorf("%s: OpenWire = %q, %v; want ErrBadSeal", name, got, err)
		}
	}
}

const base64Alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

// TestSealKeysAreHKDF pins the key derivation: HKDF-SHA256 against the
// SHA-256 test vectors of RFC 5869 (A.1, with salt and info, and A.3,
// with neither), and a standby key as crypto/hkdf derives it.
func TestSealKeysAreHKDF(t *testing.T) {
	ikm := bytes.Repeat([]byte{0x0b}, 22)
	salt, _ := hex.DecodeString("000102030405060708090a0b0c")
	info, _ := hex.DecodeString("f0f1f2f3f4f5f6f7f8f9")
	for _, c := range []struct {
		salt []byte
		info string
		okm  string
	}{
		{salt, string(info), "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"},
		{nil, "", "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"},
	} {
		if got := hkdfSHA256(c.salt, ikm, c.info); hex.EncodeToString(got[:]) != c.okm {
			t.Errorf("HKDF-SHA256(salt %x, info %q) = %x, want %s", c.salt, c.info, got, c.okm)
		}
	}
	seed := bytes.Repeat([]byte{1}, ed25519.SeedSize)
	if got := hkdfSHA256(nil, seed, LabelStandby); hex.EncodeToString(got[:]) != "d8d58553d4a259f895a7916fe9d2248e6634d0ab277bfc0e4e5385e94af4fd08" {
		t.Errorf("standby key of seed 01… = %x", got)
	}
	// The seal is HMAC-SHA256 under that key, over label NUL notAfter
	// NUL payload.
	notAfter := time.Date(2030, 1, 2, 3, 4, 5, 0, time.UTC)
	key := hkdfSHA256(nil, seed, LabelStandby)
	mac := hmac.New(sha256.New, key[:])
	mac.Write([]byte(LabelStandby + "\x00" + "2030-01-02T03:04:05Z" + "\x00" + `<p a="1"/>`))
	want := base64.StdEncoding.EncodeToString(mac.Sum(nil))
	wire := Seal(fixedKeys(1), LabelStandby, notAfter, xmldom.NewElement("p").SetAttr("a", "1").Encode)
	if !strings.HasSuffix(wire, "<signature>"+want+"</signature></sealed>") {
		t.Errorf("Seal wrote %s, want the MAC %s", wire, want)
	}
}

// TestMACAllocatesNothing guards the pooled MAC: once a key pair's keys
// are derived and its pool is warm, opening a wire form allocates
// nothing, and sealing one allocates its string.
func TestMACAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	keys := fixedKeys(1)
	payload := xmldom.NewElement("tnSession").SetAttr("id", "s1")
	payload.AppendChild(xmldom.NewElement("lastReply").AppendChild(xmldom.NewText(strings.Repeat("x", 1500))))
	notAfter := time.Now().Add(time.Hour)
	now := time.Now()
	wire := Seal(keys, LabelStandby, notAfter, payload.Encode)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := OpenWire(keys, wire, LabelStandby, now); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("OpenWire allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { Seal(keys, LabelStandby, notAfter, payload.Encode) }); n != 1 {
		t.Errorf("Seal allocates %.1f times, want 1: the wire string", n)
	}
}

func TestSealedWireForm(t *testing.T) {
	keys := fixedKeys(1)
	payload := xmldom.NewElement("ticket").SetAttr("peer", `a"b`)
	notAfter := time.Date(2030, 1, 2, 3, 4, 5, 6, time.FixedZone("X", 3600))
	wire := Seal(keys, LabelTicket, notAfter, payload.Encode)
	if !strings.HasPrefix(wire, `<sealed label="trustvo-ticket" notAfter="2030-01-02T02:04:05Z"><ticket peer="a&quot;b"/><signature>`) {
		t.Fatalf("wire form %s", wire)
	}
	// A payload written by its own layout seals as its tree does: the
	// MAC is deterministic, so the wire bytes match.
	laid := Seal(keys, LabelTicket, notAfter, func(w *xmldom.Writer) {
		w.Start("ticket")
		w.Attr("peer", `a"b`)
		w.End()
	})
	if laid != wire {
		t.Fatalf("layout seal %s differs from tree seal %s", laid, wire)
	}
	// The fields a decode reads write the same wire form through
	// EncodeSealed, in byte and in tree mode.
	opened := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	at, got, tag, err := decodeCarried(t, wire, LabelTicket)
	if err != nil || !xmldom.Equal(got, payload) {
		t.Fatalf("decoded %v, %v", got, err)
	}
	write := func(w *xmldom.Writer) { EncodeSealed(w, LabelTicket, notAfter, payload.Encode, tag) }
	if again := encodeSealed(LabelTicket, at, got, tag); again != wire || xmldom.String(write) != wire || xmldom.Tree(write).XML() != wire {
		t.Fatalf("fields write %s, sealed form %s", again, wire)
	}
	if got, err := openCarried(t, wire, LabelTicket, keys, opened); err != nil || !xmldom.Equal(got, payload) {
		t.Fatalf("carried round trip: %v, %v", got, err)
	}
	if got, err := OpenWire(keys, wire, LabelTicket, opened); err != nil || got != payload.XML() {
		t.Fatalf("wire round trip: %q, %v", got, err)
	}
	unsigned := encodeSealed(LabelTicket, notAfter, payload, nil)
	if !strings.HasSuffix(unsigned, `<ticket peer="a&quot;b"/></sealed>`) {
		t.Fatalf("unsigned wire form %s", unsigned)
	}
	if _, _, tag, err := decodeCarried(t, unsigned, LabelTicket); err != nil || tag != nil {
		t.Fatalf("unsigned wire form: tag %x, %v", tag, err)
	}
}

// TestParseSealedShape: DecodeSealed takes only the shape EncodeSealed
// writes, over bytes and over trees alike: a <sealed> element with the
// expected label and a canonical notAfter, whose children, text and
// comments counted, are one payload element and an optional <signature>
// holding a tag as OpenWire spells it. The lenient base64 decoder reads
// a tag whose padding bits differ, or that holds a newline, as the same
// bytes; neither decodes here.
func TestParseSealedShape(t *testing.T) {
	const tag = "yXwuiqz5cet6RASvohW5ZUTF96ItEstYiX0TfbVpxdw="
	const flipped = "yXwuiqz5cet6RASvohW5ZUTF96ItEstYiX0TfbVpxdx="
	if a, err := base64.StdEncoding.DecodeString(tag); err != nil {
		t.Fatal(err)
	} else if b, err := base64.StdEncoding.DecodeString(flipped); err != nil || !bytes.Equal(a, b) {
		t.Fatalf("lenient base64 reads %s and %s apart: %v", tag, flipped, err)
	}
	good := `<sealed label="l" notAfter="2030-01-01T00:00:00Z"><p/><signature>` + tag + `</signature></sealed>`
	if _, _, got, err := decodeCarried(t, good, "l"); err != nil || base64.StdEncoding.EncodeToString(got) != tag {
		t.Fatalf("%s: tag %x, %v", good, got, err)
	}
	for _, wire := range []string{
		`<sealedx label="l" notAfter="2030-01-01T00:00:00Z"><p/></sealedx>`,
		`<sealed label="m" notAfter="2030-01-01T00:00:00Z"><p/></sealed>`,
		`<sealed notAfter="2030-01-01T00:00:00Z"><p/></sealed>`,
		`<sealed label="l"><p/></sealed>`,
		`<sealed label="l" notAfter="nope"><p/></sealed>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00.5Z"><p/></sealed>`,
		`<sealed label="l" notAfter="2030-01-01T01:00:00+01:00"><p/></sealed>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00Z"/>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00Z">text</sealed>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00Z">x<p/></sealed>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00Z"><!--c--><p/></sealed>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00Z"><p/>x</sealed>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00Z"><p/><!--c--><signature>` + tag + `</signature></sealed>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00Z"><p/><q/></sealed>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00Z"><p/><signature>!!</signature></sealed>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00Z"><p/><signature>c2ln</signature></sealed>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00Z"><p/><signature>` + flipped + `</signature></sealed>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00Z"><p/><signature>` + tag[:20] + "\n" + tag[20:] + `</signature></sealed>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00Z"><p/><signature>` + tag[:43] + `</signature></sealed>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00Z"><p/><signature> ` + tag + `</signature></sealed>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00Z"><p/><signature>` + tag + `</signature><q/></sealed>`,
	} {
		if _, _, _, err := decodeCarried(t, wire, "l"); !errors.Is(err, ErrBadSeal) {
			t.Errorf("%s: DecodeSealed = %v, want ErrBadSeal", wire, err)
		}
	}
}

var sealLabels = []string{LabelTicket, LabelResume, LabelStandby, LabelReplicate}

// FuzzSealed checks the sealed wire form end to end. A seal opens, as
// received and carried (decoded, then written again from its fields),
// to its payload; an expired one fails with ErrTicketExpired whatever
// the key; a mutation of its bytes never opens as received; and a
// carried mutation either fails somewhere between decode and OpenWire or
// opens to the same label and payload.
func FuzzSealed(f *testing.F) {
	keys, other := fixedKeys(1), fixedKeys(2)
	f.Add(uint8(0), int64(1893456000), `<ticket issuer="ctl" peer="p" resource="r"/>`, uint8(0), uint16(40), byte('x'))
	f.Add(uint8(2), int64(1700000000), `<tnSession id="s1" lastSeq="2"><lastReply>&lt;x/&gt;</lastReply></tnSession>`, uint8(1), uint16(9), byte('"'))
	f.Add(uint8(1), int64(0), `<resumeTicket negotiation="n" seq="1"><tnMessage type="request"/><negotiationState/></resumeTicket>`, uint8(2), uint16(200), byte(0))
	f.Add(uint8(2), int64(1900000000), `<tnSession id="s2" lastSeq="1" lastStatus="200"><negotiationState peer="M" phase="eval" resource="R" role="controller" rounds="1" seqPos="0"><tree><node credType="R" id="r" owner="C" state="open"></node></tree></negotiationState><lastReply>&lt;envelope negotiation="s2"/&gt;</lastReply></tnSession>`, uint8(0), uint16(120), byte('<'))
	f.Add(uint8(3), int64(1900000000), `<replicate count="1" epoch="2" from="7">VFZQAAMABwAAABpkb2M=</replicate>`, uint8(0), uint16(30), byte('8'))
	f.Add(uint8(3), int64(1900000000), `<catchup epoch="1" pos="9"></catchup>`, uint8(2), uint16(60), byte(0))
	f.Fuzz(func(t *testing.T, which uint8, secs int64, payloadXML string, mode uint8, pos uint16, val byte) {
		payload, err := xmldom.ParseString(payloadXML)
		if err != nil {
			return
		}
		// A carried seal opens as the canonical form of the payload it
		// decoded, so only a payload whose canonical form survives a
		// parse can open that way. Every payload the system seals comes
		// from the Writer.
		canon := payload.XML()
		if re, err := xmldom.ParseString(canon); err != nil || re.XML() != canon {
			return
		}
		label := sealLabels[int(which)%len(sealLabels)]
		secs %= 253402300800 // 1970 to 9999: four-digit years, as RFC 3339 writes them
		if secs < 0 {
			secs = -secs
		}
		wire := Seal(keys, label, time.Unix(secs, 0), payload.Encode)
		// Sealing writes what EncodeSealed writes from the seal's fields.
		notAfter, got, tag, err := decodeCarried(t, wire, label)
		if err != nil || !notAfter.Equal(time.Unix(secs, 0)) || !xmldom.Equal(got, payload) {
			t.Fatalf("decode of %s: %v, %v", wire, got, err)
		}
		if again := encodeSealed(label, notAfter, payload, tag); again != wire {
			t.Fatalf("fields write %s, Seal wrote %s", again, wire)
		}
		now := notAfter.Add(-time.Second)
		if got, err := OpenWire(keys, wire, label, now); err != nil || got != canon {
			t.Fatalf("wire round trip of %s: %q, %v", wire, got, err)
		}
		if got, err := openCarried(t, wire, label, keys, now); err != nil || !xmldom.Equal(got, payload) {
			t.Fatalf("carried round trip of %s: %v", wire, err)
		}
		if _, err := OpenWire(other, wire, label, notAfter.Add(time.Second)); !errors.Is(err, ErrTicketExpired) {
			t.Fatalf("expired seal under a wrong key: %v, want ErrTicketExpired", err)
		}
		if _, err := openCarried(t, wire, label, other, notAfter.Add(time.Second)); !errors.Is(err, ErrTicketExpired) {
			t.Fatalf("expired carried seal under a wrong key: %v, want ErrTicketExpired", err)
		}

		b := []byte(wire)
		i := int(pos) % (len(b) + 1)
		switch mode % 3 {
		case 0: // replace
			if i == len(b) || b[i] == val {
				return
			}
			b[i] = val
		case 1: // insert
			b = append(b[:i], append([]byte{val}, b[i:]...)...)
		case 2: // delete
			if i == len(b) {
				return
			}
			b = append(b[:i], b[i+1:]...)
		}
		if got, err := OpenWire(keys, string(b), label, now); err == nil {
			t.Fatalf("mutated seal %q opened as received to %q", b, got)
		}
		for _, l := range sealLabels {
			got, err := openCarried(t, string(b), l, keys, now)
			if err == nil && (l != label || !xmldom.Equal(got, payload)) {
				t.Fatalf("mutated seal %q opened to label %q, payload %s", b, l, got.XML())
			}
		}
	})
}
