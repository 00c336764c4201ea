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

// openTree parses a wire form and opens its tree form, as a ticket
// inside a parsed message is opened.
func openTree(wire, label string, k *KeyPair, now time.Time) (*Sealed, *xmldom.Node, error) {
	root, err := xmldom.ParseString(wire)
	if err != nil {
		return nil, nil, err
	}
	s, err := ParseSealed(root)
	if err != nil {
		return nil, nil, err
	}
	payload, err := s.Open(k, label, now)
	return s, payload, err
}

func TestSealedOpenOrder(t *testing.T) {
	keys, other := fixedKeys(1), fixedKeys(2)
	payload := xmldom.NewElement("tnSession").SetAttr("id", "s1")
	notAfter := time.Now().Add(time.Hour)
	sealed := &Sealed{Label: LabelStandby, NotAfter: notAfter, Payload: payload}
	sealed.Seal(keys)
	if !sealed.NotAfter.Equal(notAfter.UTC().Truncate(time.Second)) || sealed.NotAfter.Location() != time.UTC {
		t.Fatalf("NotAfter = %v, want %v truncated to the second in UTC", sealed.NotAfter, notAfter)
	}
	s := sealed
	now := time.Now()
	late := notAfter.Add(time.Hour)
	unsigned := *s
	unsigned.Signature = nil
	short := *s
	short.Signature = s.Signature[:10]
	public := &KeyPair{Public: keys.Public}
	for _, c := range []struct {
		name  string
		s     *Sealed
		keys  *KeyPair
		label string
		now   time.Time
		want  error
	}{
		{"valid", s, keys, LabelStandby, now, nil},
		{"wrong label before expiry", s, other, LabelResume, late, ErrBadSeal},
		{"expiry before signature", s, other, LabelStandby, late, ErrTicketExpired},
		{"expired under nil key", s, nil, LabelStandby, late, ErrTicketExpired},
		{"nil key", s, nil, LabelStandby, now, ErrBadSignature},
		{"wrong key", s, other, LabelStandby, now, ErrBadSignature},
		{"missing signature", &unsigned, keys, LabelStandby, now, ErrBadSignature},
		{"malformed signature", &short, keys, LabelStandby, now, ErrBadSignature},
		{"public half only", s, public, LabelStandby, now, ErrBadSignature},
	} {
		got, err := c.s.Open(c.keys, c.label, c.now)
		if !errors.Is(err, c.want) || (c.want == nil) != (got != nil) {
			t.Errorf("%s: Open = %v, %v; want error %v", c.name, got, err, c.want)
		}
	}

	// Every sealed field is covered: a changed payload or notAfter no
	// longer opens.
	moved := *s
	moved.NotAfter = s.NotAfter.Add(time.Second)
	edited := *s
	edited.Payload = xmldom.NewElement("tnSession").SetAttr("id", "s2")
	for name, m := range map[string]*Sealed{"notAfter": &moved, "payload": &edited} {
		if _, err := m.Open(keys, LabelStandby, now); !errors.Is(err, ErrBadSignature) {
			t.Errorf("changed %s: Open = %v, want ErrBadSignature", name, err)
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
	unsigned := (&Sealed{Label: LabelStandby, NotAfter: notAfter.UTC().Truncate(time.Second), Payload: payload}).XML()
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
	// The tree form seals to the same tag and writes the same wire form,
	// in byte and in tree mode.
	tree := &Sealed{Label: LabelTicket, NotAfter: notAfter, Payload: payload}
	tree.Seal(keys)
	if tree.XML() != wire || xmldom.Tree(tree.Encode).XML() != wire {
		t.Fatalf("tree form writes %s, sealed form %s", tree.XML(), wire)
	}
	opened := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, got, err := openTree(wire, LabelTicket, keys, opened); err != nil || !xmldom.Equal(got, payload) {
		t.Fatalf("tree round trip: %v, %v", got, err)
	}
	if got, err := OpenWire(keys, wire, LabelTicket, opened); err != nil || got != payload.XML() {
		t.Fatalf("wire round trip: %q, %v", got, err)
	}
	unsigned := &Sealed{Label: LabelTicket, NotAfter: tree.NotAfter, Payload: payload}
	root, err := xmldom.ParseString(unsigned.XML())
	if err != nil {
		t.Fatal(err)
	}
	if p, err := ParseSealed(root); err != nil || p.Signature != nil {
		t.Fatalf("unsigned wire form: %+v, %v", p, err)
	}
}

func TestParseSealedShape(t *testing.T) {
	for _, wire := range []string{
		`<sealedx label="l" notAfter="2030-01-01T00:00:00Z"><p/></sealedx>`,
		`<sealed label="l"><p/></sealed>`,
		`<sealed label="l" notAfter="nope"><p/></sealed>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00.5Z"><p/></sealed>`,
		`<sealed label="l" notAfter="2030-01-01T01:00:00+01:00"><p/></sealed>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00Z"/>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00Z">text</sealed>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00Z"><p/><q/></sealed>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00Z"><p/><signature>!!</signature></sealed>`,
		`<sealed label="l" notAfter="2030-01-01T00:00:00Z"><p/><signature>c2ln</signature><q/></sealed>`,
	} {
		root, err := xmldom.ParseString(wire)
		if err != nil {
			t.Fatalf("%s: %v", wire, err)
		}
		if _, err := ParseSealed(root); !errors.Is(err, ErrBadSeal) {
			t.Errorf("%s: ParseSealed = %v, want ErrBadSeal", wire, err)
		}
	}
}

var sealLabels = []string{LabelTicket, LabelResume, LabelStandby}

// FuzzSealed checks the sealed wire form end to end. A seal opens, as
// received and after a trip through its tree form, to its payload; an
// expired one fails with ErrTicketExpired whatever the key; a mutation
// of its bytes never opens as received; and the tree form of a mutation
// either fails somewhere between parse and Open or opens to the same
// label and payload.
func FuzzSealed(f *testing.F) {
	keys, other := fixedKeys(1), fixedKeys(2)
	f.Add(uint8(0), int64(1893456000), `<ticket issuer="ctl" peer="p" resource="r"/>`, uint8(0), uint16(40), byte('x'))
	f.Add(uint8(2), int64(1700000000), `<tnSession id="s1" lastSeq="2"><lastReply>&lt;x/&gt;</lastReply></tnSession>`, uint8(1), uint16(9), byte('"'))
	f.Add(uint8(1), int64(0), `<resumeTicket negotiation="n" seq="1"><tnMessage type="request"/><negotiationState/></resumeTicket>`, uint8(2), uint16(200), byte(0))
	f.Add(uint8(2), int64(1900000000), `<tnSession id="s2" lastSeq="1" lastStatus="200"><negotiationState peer="M" phase="eval" resource="R" role="controller" rounds="1" seqPos="0"><tree><node credType="R" id="r" owner="C" state="open"></node></tree></negotiationState><lastReply>&lt;envelope negotiation="s2"/&gt;</lastReply></tnSession>`, uint8(0), uint16(120), byte('<'))
	f.Fuzz(func(t *testing.T, which uint8, secs int64, payloadXML string, mode uint8, pos uint16, val byte) {
		payload, err := xmldom.ParseString(payloadXML)
		if err != nil {
			return
		}
		// The tree form checks the canonical form of the payload it
		// parsed, so only a payload whose canonical form survives a parse
		// can open that way. Every payload the system seals comes from
		// the Writer.
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
		// Sealing the tree seals what sealing through the encode method
		// seals, and writes the same wire form.
		tree := &Sealed{Label: label, NotAfter: time.Unix(secs, 0), Payload: payload}
		tree.Seal(keys)
		if tree.XML() != wire {
			t.Fatalf("tree seal %s differs from encoder seal %s", tree.XML(), wire)
		}
		now := tree.NotAfter.Add(-time.Second)
		if got, err := OpenWire(keys, wire, label, now); err != nil || got != canon {
			t.Fatalf("wire round trip of %s: %q, %v", wire, got, err)
		}
		if _, got, err := openTree(wire, label, keys, now); err != nil || !xmldom.Equal(got, payload) {
			t.Fatalf("tree round trip of %s: %v", wire, err)
		}
		if _, err := OpenWire(other, wire, label, tree.NotAfter.Add(time.Second)); !errors.Is(err, ErrTicketExpired) {
			t.Fatalf("expired seal under a wrong key: %v, want ErrTicketExpired", err)
		}
		if _, _, err := openTree(wire, label, other, tree.NotAfter.Add(time.Second)); !errors.Is(err, ErrTicketExpired) {
			t.Fatalf("expired tree seal under a wrong key: %v, want ErrTicketExpired", err)
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
		mut, got, err := openTree(string(b), label, keys, now)
		if err != nil {
			return
		}
		if mut.Label != label || !xmldom.Equal(got, payload) {
			t.Fatalf("mutated seal %q opened to label %q, payload %s", b, mut.Label, got.XML())
		}
	})
}
