package pki

import (
	"bytes"
	"crypto/ed25519"
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

// openWire parses a wire form and opens it.
func openWire(wire, label string, pub ed25519.PublicKey, now time.Time) (*Sealed, *xmldom.Node, error) {
	root, err := xmldom.ParseString(wire)
	if err != nil {
		return nil, nil, err
	}
	s, err := ParseSealed(root)
	if err != nil {
		return nil, nil, err
	}
	payload, err := s.Open(pub, label, now)
	return s, payload, err
}

func TestSealedOpenOrder(t *testing.T) {
	keys, other := fixedKeys(1), fixedKeys(2)
	payload := xmldom.NewElement("tnSession").SetAttr("id", "s1")
	notAfter := time.Now().Add(time.Hour)
	sealed := Seal(keys, LabelStandby, notAfter, payload.Encode)
	if !sealed.NotAfter.Equal(notAfter.UTC().Truncate(time.Second)) || sealed.NotAfter.Location() != time.UTC {
		t.Fatalf("NotAfter = %v, want %v truncated to the second in UTC", sealed.NotAfter, notAfter)
	}
	// Open takes the tree form, as ParseSealed returns it.
	s := &Sealed{Label: sealed.Label, NotAfter: sealed.NotAfter, Payload: payload, Signature: sealed.Signature}
	now := time.Now()
	late := notAfter.Add(time.Hour)
	unsigned := *s
	unsigned.Signature = nil
	short := *s
	short.Signature = s.Signature[:10]
	for _, c := range []struct {
		name  string
		s     *Sealed
		pub   ed25519.PublicKey
		label string
		now   time.Time
		want  error
	}{
		{"valid", s, keys.Public, LabelStandby, now, nil},
		{"wrong label before expiry", s, other.Public, LabelResume, late, ErrBadSeal},
		{"expiry before signature", s, other.Public, LabelStandby, late, ErrTicketExpired},
		{"expired under nil key", s, nil, LabelStandby, late, ErrTicketExpired},
		{"nil key", s, nil, LabelStandby, now, ErrBadSignature},
		{"wrong key", s, other.Public, LabelStandby, now, ErrBadSignature},
		{"missing signature", &unsigned, keys.Public, LabelStandby, now, ErrBadSignature},
		{"malformed signature", &short, keys.Public, LabelStandby, now, ErrBadSignature},
		{"short key", s, keys.Public[:8], LabelStandby, now, ErrBadSignature},
	} {
		got, err := c.s.Open(c.pub, c.label, c.now)
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
		if _, err := m.Open(keys.Public, LabelStandby, now); !errors.Is(err, ErrBadSignature) {
			t.Errorf("changed %s: Open = %v, want ErrBadSignature", name, err)
		}
	}
}

func TestSealedWireForm(t *testing.T) {
	keys := fixedKeys(1)
	payload := xmldom.NewElement("ticket").SetAttr("peer", `a"b`)
	notAfter := time.Date(2030, 1, 2, 3, 4, 5, 6, time.FixedZone("X", 3600))
	s := Seal(keys, LabelTicket, notAfter, payload.Encode)
	wire := s.XML()
	if !strings.HasPrefix(wire, `<sealed label="trustvo-ticket" notAfter="2030-01-02T02:04:05Z"><ticket peer="a&quot;b"/><signature>`) {
		t.Fatalf("wire form %s", wire)
	}
	if got := xmldom.Tree(s.Encode).XML(); got != wire {
		t.Fatalf("tree mode writes %s, byte mode %s", got, wire)
	}
	// A payload written by its own layout seals as its tree does:
	// Ed25519 is deterministic, so the signature and wire bytes match.
	laid := Seal(keys, LabelTicket, notAfter, func(w *xmldom.Writer) {
		w.Start("ticket")
		w.Attr("peer", `a"b`)
		w.End()
	})
	if !bytes.Equal(laid.Signature, s.Signature) || laid.XML() != wire {
		t.Fatalf("layout seal %s differs from tree seal %s", laid.XML(), wire)
	}
	if tree := (&Sealed{Label: LabelTicket, NotAfter: s.NotAfter, Payload: payload, Signature: s.Signature}); tree.XML() != wire {
		t.Fatalf("tree form writes %s, sealed form %s", tree.XML(), wire)
	}
	_, got, err := openWire(wire, LabelTicket, keys.Public, time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	if err != nil || !xmldom.Equal(got, payload) {
		t.Fatalf("round trip: %v, %v", got, err)
	}
	unsigned := &Sealed{Label: LabelTicket, NotAfter: s.NotAfter, Payload: payload}
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

// FuzzSealed checks the sealed wire form end to end. A seal opens, after
// a trip through its wire form, to an equal payload; an expired one
// fails with ErrTicketExpired whatever the key; and a mutation of its
// bytes either fails somewhere between parse and Open or opens to the
// same label and payload.
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
		// Open checks the canonical form of the payload it parsed, so
		// only a payload whose canonical form survives a parse can open.
		// Every payload the system seals comes from the Writer.
		if re, err := xmldom.ParseString(payload.XML()); err != nil || re.XML() != payload.XML() {
			return
		}
		label := sealLabels[int(which)%len(sealLabels)]
		secs %= 253402300800 // 1970 to 9999: four-digit years, as RFC 3339 writes them
		if secs < 0 {
			secs = -secs
		}
		s := Seal(keys, label, time.Unix(secs, 0), payload.Encode)
		wire := s.XML()
		// Sealing through the encode method signs what signing the tree
		// signs, and writes the same wire form.
		tree := &Sealed{Label: label, NotAfter: s.NotAfter, Payload: payload}
		tree.Signature = keys.Sign(tree.signedBytes())
		if !bytes.Equal(tree.Signature, s.Signature) || tree.XML() != wire {
			t.Fatalf("tree seal %s differs from encoder seal %s", tree.XML(), wire)
		}
		now := s.NotAfter.Add(-time.Second)
		if _, got, err := openWire(wire, label, keys.Public, now); err != nil || !xmldom.Equal(got, payload) {
			t.Fatalf("round trip of %s: %v", wire, err)
		}
		if _, _, err := openWire(wire, label, other.Public, s.NotAfter.Add(time.Second)); !errors.Is(err, ErrTicketExpired) {
			t.Fatalf("expired seal under a wrong key: %v, want ErrTicketExpired", err)
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
		mut, got, err := openWire(string(b), label, keys.Public, now)
		if err != nil {
			return
		}
		if mut.Label != label || !xmldom.Equal(got, payload) {
			t.Fatalf("mutated seal %q opened to label %q, payload %s", b, mut.Label, got.XML())
		}
	})
}
