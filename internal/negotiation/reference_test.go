package negotiation

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"trustvo/internal/pki"
	"trustvo/internal/xmldom"
	"trustvo/internal/xtnl"
)

// refMessageFromDOM, refDisclosureFromDOM and refTicketFromDOM are the
// tree-walking decoders DecodeMessage replaced, kept as the oracle
// FuzzDecodeMessage checks it against. Nested credentials and policies
// decode through xtnl's tree entry points, which FuzzDecodeCredential
// and FuzzDecodePolicy check against xtnl's own reference decoders.

func refMessageFromDOM(root *xmldom.Node) (*Message, error) {
	if root.Name != "tnMessage" {
		return nil, fmt.Errorf("%w: root <%s>", ErrBadMessage, root.Name)
	}
	mt, err := parseMsgType(root.AttrOr("type", ""))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadMessage, err)
	}
	m := &Message{
		Type:         mt,
		From:         root.AttrOr("from", ""),
		Resource:     root.AttrOr("resource", ""),
		RequireProof: root.AttrOr("requireProof", "") == "true",
	}
	if st, ok := root.Attr("strategy"); ok {
		s, err := ParseStrategy(st)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadMessage, err)
		}
		m.Strategy = s
	}
	b64 := func(s string) ([]byte, error) {
		if s == "" {
			return nil, nil
		}
		return base64.StdEncoding.DecodeString(s)
	}
	for _, an := range root.Childs("answer") {
		a := Answer{NodeID: an.AttrOr("node", ""), Reason: an.AttrOr("reason", "")}
		switch an.AttrOr("kind", "") {
		case "policies":
			a.Kind = AnswerPolicies
		case "comply":
			a.Kind = AnswerComply
		case "deny":
			a.Kind = AnswerDeny
		default:
			return nil, fmt.Errorf("%w: answer kind %q", ErrBadMessage, an.AttrOr("kind", ""))
		}
		for _, pe := range an.Childs("policy") {
			p, err := xtnl.PolicyFromDOM(pe)
			if err != nil {
				return nil, fmt.Errorf("%w: %w", ErrBadMessage, err)
			}
			a.Policies = append(a.Policies, p)
		}
		if de := an.Child("disclosure"); de != nil {
			d, err := refDisclosureFromDOM(de)
			if err != nil {
				return nil, err
			}
			a.Disclosure = d
		}
		m.Answers = append(m.Answers, a)
	}
	if seq := root.Child("trustSequence"); seq != nil {
		for _, e := range seq.Childs("entry") {
			m.Sequence = append(m.Sequence, e.AttrOr("node", ""))
		}
	}
	for _, de := range root.Childs("disclosure") {
		d, err := refDisclosureFromDOM(de)
		if err != nil {
			return nil, err
		}
		m.Disclosures = append(m.Disclosures, *d)
	}
	if n := root.Child("nonce"); n != nil {
		if m.Nonce, err = b64(n.Text()); err != nil {
			return nil, fmt.Errorf("%w: nonce: %w", ErrBadMessage, err)
		}
		if m.Nonce != nil && len(m.Nonce) <= len(m.nonce) {
			// the decoder keeps a nonce that fits in the message's array
			m.Nonce = append(m.nonce[:0], m.Nonce...)
		}
	}
	if g := root.Child("grant"); g != nil {
		if m.Grant, err = b64(g.Text()); err != nil {
			return nil, fmt.Errorf("%w: grant: %w", ErrBadMessage, err)
		}
	}
	if tk := root.Child("sealed"); tk != nil {
		if m.Ticket, err = refTicketFromDOM(tk); err != nil {
			return nil, err
		}
	}
	if r := root.Child("reason"); r != nil {
		m.Reason = r.Text()
	}
	return m, nil
}

// refTicketFromDOM is the tree walk a ticket was decoded with
// (pki.ParseSealed, then the payload's attributes), with the two rules
// pki.DecodeSealed added: the label must be the ticket label, and the
// tag must be spelled as pki.OpenWire takes it, exactly 44 characters of
// strict base64. Both shape errors of ParseSealed are now one.
func refTicketFromDOM(n *xmldom.Node) (*Ticket, error) {
	bad := func(format string, args ...any) (*Ticket, error) {
		return nil, fmt.Errorf("%w: ticket: %w: "+format, append([]any{ErrBadMessage, pki.ErrBadSeal}, args...)...)
	}
	if label := n.AttrOr("label", ""); label != pki.LabelTicket {
		return bad("label %q, want %q", label, pki.LabelTicket)
	}
	raw := n.AttrOr("notAfter", "")
	notAfter, err := time.Parse(time.RFC3339, raw)
	if err != nil || notAfter.UTC().Format(time.RFC3339) != raw {
		return bad("notAfter %q", raw)
	}
	kids := n.Children
	if len(kids) == 0 || len(kids) > 2 || kids[0].Type != xmldom.ElementNode ||
		len(kids) == 2 && (kids[1].Type != xmldom.ElementNode || kids[1].Name != "signature") {
		return bad("want a payload element and an optional <signature>")
	}
	p := kids[0]
	t := &Ticket{Issuer: p.AttrOr("issuer", ""), Peer: p.AttrOr("peer", ""), Resource: p.AttrOr("resource", ""), Expires: notAfter}
	if len(kids) == 2 {
		text := kids[1].Text()
		b, err := base64.StdEncoding.Strict().DecodeString(text)
		if len(text) != 44 || err != nil || len(b) != sha256.Size {
			return bad("signature is not the base64 of %d bytes", sha256.Size)
		}
		t.Signature = b
	}
	return t, nil
}

func refDisclosureFromDOM(el *xmldom.Node) (*CredentialDisclosure, error) {
	d := &CredentialDisclosure{NodeID: el.AttrOr("node", "")}
	if ce := el.Child("credential"); ce != nil {
		c, err := xtnl.CredentialFromDOM(ce)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadMessage, err)
		}
		d.Credential = c
	}
	if xe := el.Child("x509"); xe != nil {
		b, err := base64.StdEncoding.DecodeString(strings.TrimSpace(xe.Text()))
		if err != nil {
			return nil, fmt.Errorf("%w: x509: %w", ErrBadMessage, err)
		}
		d.X509 = b
	}
	if com := el.Child("committed"); com != nil {
		ce := com.Child("credential")
		if ce == nil {
			return nil, fmt.Errorf("%w: committed without credential", ErrBadMessage)
		}
		c, err := xtnl.CredentialFromDOM(ce)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadMessage, err)
		}
		d.Committed = c
	}
	for _, oe := range el.Childs("opened") {
		salt, err := base64.StdEncoding.DecodeString(oe.AttrOr("salt", ""))
		if err != nil {
			return nil, fmt.Errorf("%w: opened salt: %w", ErrBadMessage, err)
		}
		d.Opened = append(d.Opened, OpenedAttr{
			Name:  oe.AttrOr("name", ""),
			Value: oe.Text(),
			Salt:  salt,
		})
	}
	if pr := el.Child("ownershipProof"); pr != nil {
		b, err := base64.StdEncoding.DecodeString(pr.Text())
		if err != nil {
			return nil, fmt.Errorf("%w: ownership proof: %w", ErrBadMessage, err)
		}
		d.OwnershipProof = b
	}
	if ch := el.Child("chain"); ch != nil {
		for _, ce := range ch.Childs("credential") {
			c, err := xtnl.CredentialFromDOM(ce)
			if err != nil {
				return nil, fmt.Errorf("%w: chain: %w", ErrBadMessage, err)
			}
			d.Chain = append(d.Chain, c)
		}
	}
	return d, nil
}

// FuzzDecodeMessage checks DecodeMessage, over bytes and over trees,
// against the tree-walking decoder it replaced: both accept or reject,
// with deep-equal messages or the same error.
func FuzzDecodeMessage(f *testing.F) {
	for _, data := range [][]byte{{}, []byte("tnMessage"), bytes.Repeat([]byte{2, 7, 1, 3, 9, 4}, 60), bytes.Repeat([]byte{1, 2, 0, 250, 5, 3, 8, 1}, 80)} {
		f.Add((&gen{data}).message().XML())
	}
	for _, doc := range messageDecoderSeeds {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		got, err := ParseMessage(doc)
		var ref *Message
		root, refErr := xmldom.ParseString(doc)
		if refErr != nil {
			refErr = fmt.Errorf("%w: %w", ErrBadMessage, refErr)
		} else {
			ref, refErr = refMessageFromDOM(root)
		}
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("%q: decoder error %v, reference error %v", doc, err, refErr)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%q: decoded %+v, reference %+v", doc, got, ref)
		}
		if root == nil {
			return
		}
		fromDOM, err := MessageFromDOM(root)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() || !reflect.DeepEqual(fromDOM, ref) {
			t.Fatalf("%q: tree decoder %+v, %v; reference %+v, %v", doc, fromDOM, err, ref, refErr)
		}
	})
}

// messageDecoderSeeds put errors and repeats out of the layout's order.
var messageDecoderSeeds = []string{
	`<tnMessage type="policy" from="a"><nonce>!!</nonce><answer node="n" kind="bogus"/></tnMessage>`,
	`<tnMessage type="credential" from="a"><grant>!!</grant><disclosure node="d"><x509>!!</x509></disclosure><nonce>AAAA</nonce><nonce>!!</nonce></tnMessage>`,
	`<tnMessage type="policy" from="a"><answer node="n" kind="policies"><disclosure><ownershipProof>!!</ownershipProof></disclosure><policy><resource/></policy></answer></tnMessage>`,
	`<tnMessage type="credential" from="a"><disclosure node="d"><chain><credential><header/></credential></chain><opened salt="!!"/><committed/></disclosure></tnMessage>`,
	`<tnMessage type="credential" from="a"><disclosure node="d"><committed><x/><credential type="T"><header/></credential><credential/></committed>` +
		`<opened name="k" salt="AAAA">v<b>w</b></opened><opened name="j" salt="">&amp;</opened><chain><y/><credential type="C"><header/></credential></chain><chain/></disclosure>` +
		`<trustSequence><entry node="1"/><x/><entry/></trustSequence><trustSequence><entry node="2"/></trustSequence><reason>r<!--c-->s</reason><reason>t</reason></tnMessage>`,
	`<tnMessage type="success" from="a"><sealed label="trustvo-ticket" notAfter="2030-01-01T00:00:00Z"><ticket issuer="i" peer="p" resource="r"/><signature>AAAA</signature></sealed><grant>Zw==</grant></tnMessage>`,
	`<tnMessage type="success" from="a"><sealed/><grant>!!</grant></tnMessage>`,
	`<tnMessage type="success" from="a"><sealed label="trustvo-ticket" notAfter="2030-01-01T00:00:00Z"><ticket issuer="i" peer="p" resource="r"><x/></ticket><signature>Wwq4LNUDbbiNCq3+4Gnh4qKpF/rTDN9ZY5Tep6s9mp4=</signature></sealed></tnMessage>`,
	`<tnMessage type="success" from="a"><sealed label="trustvo-ticket" notAfter="2030-01-01T00:00:00Z"><ticket/><signature>Wwq4LNUDbbiNCq3+4Gnh4qKpF/rTDN9ZY5Tep6s9mp5=</signature></sealed></tnMessage>`,
	`<tnMessage type="success" from="a"><sealed label="trustvo-ticket" notAfter="2030-01-01T00:00:00Z"><ticket/><signature>Wwq4LNUDbbiNCq3+4Gnh&#10;4qKpF/rTDN9ZY5Tep6s9mp4=</signature></sealed></tnMessage>`,
	`<tnMessage type="success" from="a"><sealed label="trustvo-ticket" notAfter="2030-01-01T00:00:00Z">x<ticket/></sealed><sealed label="trustvo-ticket" notAfter="2030-01-01T00:00:00Z"><ticket/></sealed></tnMessage>`,
	`<tnMessage type="success" from="a"><sealed label="trustvo-ticket" notAfter="2030-01-01T00:00:00Z"><ticket/><!--c--></sealed></tnMessage>`,
	`<tnMessage type="success" from="a"><sealed label="trustvo-resume" notAfter="2030-01-01T00:00:00Z"><ticket/></sealed></tnMessage>`,
	`<tnMessage type="request" from="a" strategy="bogus"/>`,
	`<tnMessage type="request" from="a" strategy="suspicious" requireProof="true" resource="R"/>`,
	`<envelope/>`,
}
