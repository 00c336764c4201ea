package negotiation

import (
	"cmp"
	"encoding/base64"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"trustvo/internal/pki"
	"trustvo/internal/xmldom"
	"trustvo/internal/xtnl"
)

// MsgType enumerates the negotiation protocol messages.
type MsgType int

const (
	// MsgRequest opens a negotiation for a resource (requester → controller).
	MsgRequest MsgType = iota
	// MsgPolicy carries policy-evaluation answers for open tree nodes.
	MsgPolicy
	// MsgContinue keeps the alternation alive when the sender has no new
	// answers yet (used by the strong-suspicious one-answer pacing).
	MsgContinue
	// MsgSequence proposes the agreed trust sequence, ending phase 1.
	MsgSequence
	// MsgCredential discloses the sender's next run of credentials in
	// the trust sequence.
	MsgCredential
	// MsgAck acknowledges verified disclosures without disclosing
	// (carries the challenge nonce for the counterpart's next turn).
	MsgAck
	// MsgSuccess ends the negotiation with the resource grant.
	MsgSuccess
	// MsgFail aborts the negotiation.
	MsgFail
)

var msgTypeNames = map[MsgType]string{
	MsgRequest: "request", MsgPolicy: "policy", MsgContinue: "continue",
	MsgSequence: "sequence", MsgCredential: "credential", MsgAck: "ack",
	MsgSuccess: "success", MsgFail: "fail",
}

func (m MsgType) String() string {
	if s, ok := msgTypeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", int(m))
}

func parseMsgType(s string) (MsgType, error) {
	for k, v := range msgTypeNames {
		if v == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("negotiation: unknown message type %q", s)
}

// AnswerKind discriminates policy-evaluation answers.
type AnswerKind int

const (
	// AnswerPolicies: the node is protected; the attached policies must
	// be satisfied first.
	AnswerPolicies AnswerKind = iota
	// AnswerComply: the node will be satisfied freely (and, under the
	// trusting strategy, the disclosure may be attached immediately).
	AnswerComply
	// AnswerDeny: the sender does not possess a satisfying credential or
	// refuses (also used to cut policy cycles).
	AnswerDeny
)

func (k AnswerKind) String() string {
	switch k {
	case AnswerPolicies:
		return "policies"
	case AnswerComply:
		return "comply"
	case AnswerDeny:
		return "deny"
	default:
		return fmt.Sprintf("AnswerKind(%d)", int(k))
	}
}

// Answer is one policy-evaluation verdict for a tree node owned by the
// sender.
type Answer struct {
	NodeID   string
	Kind     AnswerKind
	Policies []*xtnl.Policy // AnswerPolicies: the protecting alternatives
	Reason   string         // AnswerDeny: human-readable cause
	// Disclosure carries the eager credential of a trusting COMPLY.
	Disclosure *CredentialDisclosure
}

// CredentialDisclosure is one disclosed credential: either a full
// credential or a selective disclosure (committed credential + opened
// attributes), plus an optional ownership proof over the receiver's
// nonce and any delegation credentials supporting the issuer chain.
type CredentialDisclosure struct {
	NodeID string
	// Credential is the full credential (nil when selective or X.509).
	Credential *xtnl.Credential
	// X509 carries the credential as an X.509 v2-style attribute
	// certificate (DER) instead of X-TNL XML — the §6.3 dual-format
	// support.
	X509 []byte
	// Committed and Opened carry a selective disclosure.
	Committed *xtnl.Credential
	Opened    []OpenedAttr
	// OwnershipProof is the holder-key signature over the receiver's
	// last nonce.
	OwnershipProof []byte
	// Chain holds AuthorityDelegation credentials linking the issuer to
	// one of the receiver's trust roots.
	Chain []*xtnl.Credential
}

// OpenedAttr mirrors pki.OpenedAttr on the wire.
type OpenedAttr struct {
	Name  string
	Value string
	Salt  []byte
}

// Message is one protocol message. Messages serialize to XML for the TN
// web service transport (internal/wsrpc).
type Message struct {
	Type     MsgType
	From     string
	Resource string   // MsgRequest
	Strategy Strategy // MsgRequest: requester's strategy (informational)
	// RequireProof tells the counterpart that this sender demands
	// ownership proofs on the credentials it receives.
	RequireProof bool
	Answers      []Answer // MsgPolicy
	// Sequence carries the proposed trust sequence node IDs (MsgSequence).
	Sequence []string
	// Disclosures carries phase-2 credentials (MsgCredential) .
	Disclosures []CredentialDisclosure
	// Nonce is the fresh challenge for the counterpart's next disclosure.
	// A sending endpoint draws it, and DecodeMessage decodes it, into the
	// message's own array, nonce.
	Nonce []byte
	// Grant is the opaque resource payload of MsgSuccess.
	Grant []byte
	// Ticket is a trust ticket: presented with MsgRequest to skip the
	// negotiation, or freshly issued with MsgSuccess.
	Ticket *Ticket
	// Reason explains MsgFail.
	Reason string

	nonce [pki.NonceSize]byte
}

// ---- XML codec ----

// Encode writes the message in the reproduction's TN wire format:
// <tnMessage type=… from=…> with one child per populated field.
func (m *Message) Encode(w *xmldom.Writer) {
	w.Start("tnMessage")
	w.Attr("type", m.Type.String())
	w.Attr("from", m.From)
	if m.Resource != "" {
		w.Attr("resource", m.Resource)
	}
	if m.Type == MsgRequest {
		w.Attr("strategy", m.Strategy.String())
	}
	if m.RequireProof {
		w.Attr("requireProof", "true")
	}
	for i := range m.Answers {
		a := &m.Answers[i]
		w.Start("answer")
		w.Attr("node", a.NodeID)
		w.Attr("kind", a.Kind.String())
		if a.Reason != "" {
			w.Attr("reason", a.Reason)
		}
		for _, p := range a.Policies {
			p.Encode(w)
		}
		if a.Disclosure != nil {
			a.Disclosure.encode(w)
		}
		w.End()
	}
	if len(m.Sequence) > 0 {
		w.Start("trustSequence")
		for _, id := range m.Sequence {
			w.Start("entry")
			w.Attr("node", id)
			w.End()
		}
		w.End()
	}
	for i := range m.Disclosures {
		m.Disclosures[i].encode(w)
	}
	if len(m.Nonce) > 0 {
		base64Element(w, "nonce", m.Nonce)
	}
	if len(m.Grant) > 0 {
		base64Element(w, "grant", m.Grant)
	}
	if m.Ticket != nil {
		m.Ticket.encode(w)
	}
	if m.Reason != "" {
		w.Start("reason")
		w.Text(m.Reason)
		w.End()
	}
	w.End()
}

func (d *CredentialDisclosure) encode(w *xmldom.Writer) {
	w.Start("disclosure")
	w.Attr("node", d.NodeID)
	if d.Credential != nil {
		d.Credential.Encode(w)
	}
	if len(d.X509) > 0 {
		base64Element(w, "x509", d.X509)
	}
	if d.Committed != nil {
		w.Start("committed")
		d.Committed.Encode(w)
		w.End()
		for _, o := range d.Opened {
			w.Start("opened")
			w.Attr("name", o.Name)
			w.AttrBase64("salt", o.Salt)
			w.Text(o.Value)
			w.End()
		}
	}
	if len(d.OwnershipProof) > 0 {
		base64Element(w, "ownershipProof", d.OwnershipProof)
	}
	if len(d.Chain) > 0 {
		w.Start("chain")
		for _, c := range d.Chain {
			c.Encode(w)
		}
		w.End()
	}
	w.End()
}

// base64Element writes <name>base64(b)</name>.
func base64Element(w *xmldom.Writer, name string, b []byte) {
	w.Start(name)
	w.TextBase64(b)
	w.End()
}

// XML serializes the message in canonical form.
func (m *Message) XML() string { return xmldom.String(m.Encode) }

// ErrBadMessage reports a malformed wire message.
var ErrBadMessage = errors.New("negotiation: malformed message")

// ParseMessage decodes a wire message from its bytes, building no tree.
func ParseMessage(xmlText string) (*Message, error) {
	r := xmldom.NewReader(xmlText)
	var m *Message
	err := fmt.Errorf("%w: no root element", ErrBadMessage)
	if r.Child(0) {
		m, err = DecodeMessage(r)
	}
	if serr := r.Close(); serr != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadMessage, serr)
	}
	return m, err
}

// MessageFromDOM decodes a message from a parsed tree.
func MessageFromDOM(root *xmldom.Node) (*Message, error) {
	r := xmldom.NewNodeReader(root)
	defer r.Close()
	if !r.Child(0) {
		return nil, fmt.Errorf("%w: no root element", ErrBadMessage)
	}
	return DecodeMessage(r)
}

// DecodeMessage decodes the <tnMessage> whose start tag r has just read,
// reading it to its end: the one decoder of the wire layout, over bytes
// and over trees alike. Every <answer> and <disclosure> counts; of the
// other children the first of its name does, and later repeats and
// unknown elements are skipped unread. The error reported is the one the
// layout's order meets first: answers, the trust sequence, disclosures,
// nonce, grant, ticket, whatever their order in the document.
func DecodeMessage(r *xmldom.Reader) (*Message, error) {
	if r.Name() != "tnMessage" {
		return nil, fmt.Errorf("%w: root <%s>", ErrBadMessage, r.Name())
	}
	mt, err := parseMsgType(r.AttrOr("type", ""))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadMessage, err)
	}
	m := &Message{
		Type:         mt,
		From:         r.AttrOr("from", ""),
		Resource:     r.AttrOr("resource", ""),
		RequireProof: r.AttrOr("requireProof", "") == "true",
	}
	if st, ok := r.Attr("strategy"); ok {
		s, err := ParseStrategy(st)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadMessage, err)
		}
		m.Strategy = s
	}
	var errs [5]error // answers, disclosures, nonce, grant, ticket
	var seen [5]bool  // trustSequence, nonce, grant, sealed, reason
	for d := r.Depth(); r.Child(d); {
		switch r.Name() {
		case "answer":
			if errs[0] == nil {
				var a Answer
				if errs[0] = a.decode(r); errs[0] == nil {
					m.Answers = append(m.Answers, a)
				}
			}
		case "trustSequence":
			if !seen[0] {
				seen[0] = true
				for d := r.Depth(); r.Child(d); {
					if r.Name() == "entry" {
						m.Sequence = append(m.Sequence, r.AttrOr("node", ""))
					}
				}
			}
		case "disclosure":
			if errs[1] == nil {
				var cd CredentialDisclosure
				if errs[1] = cd.decode(r); errs[1] == nil {
					m.Disclosures = append(m.Disclosures, cd)
				}
			}
		case "nonce":
			if !seen[1] {
				seen[1] = true
				if m.Nonce, err = appendB64(m.nonce[:0], r.Text()); err != nil {
					errs[2] = fmt.Errorf("%w: nonce: %w", ErrBadMessage, err)
				}
			}
		case "grant":
			if !seen[2] {
				seen[2] = true
				if m.Grant, err = appendB64(nil, r.Text()); err != nil {
					errs[3] = fmt.Errorf("%w: grant: %w", ErrBadMessage, err)
				}
			}
		case "sealed":
			if !seen[3] {
				seen[3] = true
				m.Ticket, errs[4] = decodeTicket(r)
			}
		case "reason":
			if !seen[4] {
				seen[4] = true
				m.Reason = r.Text()
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// appendB64 appends the decoding of a base64 text to dst, nil when the
// text is empty: into dst's own array when it has room, as a nonce's
// text decodes into its message.
func appendB64(dst []byte, s string) ([]byte, error) {
	if s == "" {
		return nil, nil
	}
	return base64.StdEncoding.AppendDecode(dst, []byte(s))
}

// decode reads the <answer> whose start tag r has just read. Its
// policies are checked before its disclosure.
func (a *Answer) decode(r *xmldom.Reader) error {
	a.NodeID, a.Reason = r.AttrOr("node", ""), r.AttrOr("reason", "")
	switch kind := r.AttrOr("kind", ""); kind {
	case "policies":
		a.Kind = AnswerPolicies
	case "comply":
		a.Kind = AnswerComply
	case "deny":
		a.Kind = AnswerDeny
	default:
		return fmt.Errorf("%w: answer kind %q", ErrBadMessage, kind)
	}
	var errs [2]error // policies, disclosure
	seen := false
	for d := r.Depth(); r.Child(d); {
		switch r.Name() {
		case "policy":
			if errs[0] == nil {
				p, err := xtnl.DecodePolicy(r)
				if err != nil {
					errs[0] = fmt.Errorf("%w: %w", ErrBadMessage, err)
				} else {
					a.Policies = append(a.Policies, p)
				}
			}
		case "disclosure":
			if !seen {
				seen = true
				disc := &CredentialDisclosure{}
				if errs[1] = disc.decode(r); errs[1] == nil {
					a.Disclosure = disc
				}
			}
		}
	}
	return cmp.Or(errs[0], errs[1])
}

// decode reads the <disclosure> whose start tag r has just read, in the
// layout's order: credential, x509, committed, opened, ownership proof,
// chain.
func (d *CredentialDisclosure) decode(r *xmldom.Reader) error {
	d.NodeID = r.AttrOr("node", "")
	var errs [6]error
	var seen [5]bool // credential, x509, committed, ownershipProof, chain
	for dd := r.Depth(); r.Child(dd); {
		switch r.Name() {
		case "credential":
			if !seen[0] {
				seen[0] = true
				c, err := xtnl.DecodeCredential(r)
				if err != nil {
					errs[0] = fmt.Errorf("%w: %w", ErrBadMessage, err)
				}
				d.Credential = c
			}
		case "x509":
			if !seen[1] {
				seen[1] = true
				b, err := base64.StdEncoding.DecodeString(strings.TrimSpace(r.Text()))
				if err != nil {
					errs[1] = fmt.Errorf("%w: x509: %w", ErrBadMessage, err)
				}
				d.X509 = b
			}
		case "committed":
			if !seen[2] {
				seen[2] = true
				d.Committed, errs[2] = decodeCommitted(r)
			}
		case "opened":
			if errs[3] == nil {
				salt, err := base64.StdEncoding.DecodeString(r.AttrOr("salt", ""))
				if err != nil {
					errs[3] = fmt.Errorf("%w: opened salt: %w", ErrBadMessage, err)
					continue
				}
				d.Opened = append(d.Opened, OpenedAttr{Name: r.AttrOr("name", ""), Value: r.Text(), Salt: salt})
			}
		case "ownershipProof":
			if !seen[3] {
				seen[3] = true
				b, err := base64.StdEncoding.DecodeString(r.Text())
				if err != nil {
					errs[4] = fmt.Errorf("%w: ownership proof: %w", ErrBadMessage, err)
				}
				d.OwnershipProof = b
			}
		case "chain":
			if !seen[4] {
				seen[4] = true
				for dc := r.Depth(); r.Child(dc); {
					if r.Name() != "credential" || errs[5] != nil {
						continue
					}
					c, err := xtnl.DecodeCredential(r)
					if err != nil {
						errs[5] = fmt.Errorf("%w: chain: %w", ErrBadMessage, err)
						continue
					}
					d.Chain = append(d.Chain, c)
				}
			}
		}
	}
	return cmp.Or(errs[:]...)
}

// decodeCommitted reads the <committed> element whose start tag r has
// just read: its first <credential>.
func decodeCommitted(r *xmldom.Reader) (*xtnl.Credential, error) {
	for d := r.Depth(); r.Child(d); {
		if r.Name() == "credential" {
			c, err := xtnl.DecodeCredential(r)
			if err != nil {
				return nil, fmt.Errorf("%w: %w", ErrBadMessage, err)
			}
			return c, nil // Child skips the rest of <committed>
		}
	}
	return nil, fmt.Errorf("%w: committed without credential", ErrBadMessage)
}

// Summary is a short human-readable rendering for logs.
func (m *Message) Summary() string {
	switch m.Type {
	case MsgRequest:
		return fmt.Sprintf("request(%s, %s)", m.Resource, m.Strategy)
	case MsgPolicy:
		return fmt.Sprintf("policy(%d answers)", len(m.Answers))
	case MsgCredential:
		return fmt.Sprintf("credential(%d disclosures)", len(m.Disclosures))
	case MsgSequence:
		return fmt.Sprintf("sequence(%d entries)", len(m.Sequence))
	case MsgFail:
		return "fail(" + m.Reason + ")"
	default:
		return m.Type.String() + "(" + strconv.Itoa(len(m.Disclosures)) + ")"
	}
}
