package negotiation

import (
	"crypto/ed25519"
	"encoding/base64"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"trustvo/internal/pki"
	"trustvo/internal/xmldom"
)

// Trust tickets.
//
// The Trust-X system the paper integrates supports negotiations based on
// trust tickets: after a successful negotiation, the resource's
// controller can issue the requester a ticket; presenting it in a later
// negotiation for the same resource skips the policy-evaluation and
// credential-exchange phases entirely. This matters for the VO
// operational phase, where the same members re-negotiate repeatedly
// ("executed repeatedly until the target result is achieved", §3).
//
// A ticket is a signed statement ⟨issuer, peer, resource, expiry⟩ under
// the issuer's Ed25519 key. The issuer verifies its own signature on
// presentation, so no extra trust setup is needed.

// Ticket is a trust ticket for one (peer, resource) pair.
type Ticket struct {
	Issuer    string
	Peer      string
	Resource  string
	Expires   time.Time
	Signature []byte
}

func (t *Ticket) signedBytes() []byte {
	return []byte("trustvo-ticket|" + t.Issuer + "|" + t.Peer + "|" + t.Resource + "|" +
		t.Expires.UTC().Format(time.RFC3339))
}

// IssueTicket signs a ticket for peer over resource, valid for ttl.
func IssueTicket(keys *pki.KeyPair, issuer, peer, resource string, ttl time.Duration) *Ticket {
	t := &Ticket{
		Issuer:   issuer,
		Peer:     peer,
		Resource: resource,
		Expires:  time.Now().Add(ttl).UTC().Truncate(time.Second),
	}
	t.Signature = keys.Sign(t.signedBytes())
	return t
}

// ErrBadTicket reports an invalid or expired trust ticket.
var ErrBadTicket = errors.New("negotiation: invalid trust ticket")

// Verify checks the ticket against the issuer's public key, the
// expected peer and resource, and the clock.
func (t *Ticket) Verify(pub ed25519.PublicKey, peer, resource string, now time.Time) error {
	if t.Peer != peer || t.Resource != resource {
		return fmt.Errorf("%w: bound to %s/%s", ErrBadTicket, t.Peer, t.Resource)
	}
	if now.After(t.Expires) {
		return fmt.Errorf("%w: expired %s", ErrBadTicket, t.Expires.Format(time.RFC3339))
	}
	if !ed25519.Verify(pub, t.signedBytes(), t.Signature) {
		return fmt.Errorf("%w: signature", ErrBadTicket)
	}
	return nil
}

// Encode writes the ticket for the wire:
// <ticket issuer=… peer=… resource=… expires=…>base64 signature</ticket>.
func (t *Ticket) Encode(w *xmldom.Writer) {
	w.Start("ticket")
	w.Attr("issuer", t.Issuer)
	w.Attr("peer", t.Peer)
	w.Attr("resource", t.Resource)
	w.AttrTime("expires", t.Expires.UTC(), time.RFC3339)
	w.TextBase64(t.Signature)
	w.End()
}

func ticketFromDOM(n *xmldom.Node) (*Ticket, error) {
	exp, err := time.Parse(time.RFC3339, n.AttrOr("expires", ""))
	if err != nil {
		return nil, fmt.Errorf("%w: bad expiry: %w", ErrBadMessage, err)
	}
	sig, err := base64.StdEncoding.DecodeString(n.Text())
	if err != nil {
		return nil, fmt.Errorf("%w: bad ticket signature encoding: %w", ErrBadMessage, err)
	}
	return &Ticket{
		Issuer:    n.AttrOr("issuer", ""),
		Peer:      n.AttrOr("peer", ""),
		Resource:  n.AttrOr("resource", ""),
		Expires:   exp,
		Signature: sig,
	}, nil
}

// TicketCache stores the trust tickets a party has received, keyed by
// (issuer, resource). Safe for concurrent use.
type TicketCache struct {
	mu      sync.RWMutex
	tickets map[string]*Ticket
}

// NewTicketCache returns an empty cache.
func NewTicketCache() *TicketCache {
	return &TicketCache{tickets: make(map[string]*Ticket)}
}

func ticketKey(issuer, resource string) string { return issuer + "\x00" + resource }

// Put stores a ticket.
func (c *TicketCache) Put(t *Ticket) {
	if c == nil || t == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tickets[ticketKey(t.Issuer, t.Resource)] = t
}

// Get returns the cached ticket for (issuer, resource), nil if absent
// or expired (expired entries are dropped).
func (c *TicketCache) Get(issuer, resource string, now time.Time) *Ticket {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tickets[ticketKey(issuer, resource)]
	if t == nil {
		return nil
	}
	if now.After(t.Expires) {
		delete(c.tickets, ticketKey(issuer, resource))
		return nil
	}
	return t
}

// GetByResource returns any unexpired cached ticket for the resource
// (a requester usually does not know the controller's name before the
// first reply; the controller validates the binding anyway).
func (c *TicketCache) GetByResource(resource string, now time.Time) *Ticket {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, t := range c.tickets {
		if t.Resource != resource {
			continue
		}
		if now.After(t.Expires) {
			delete(c.tickets, k)
			continue
		}
		return t
	}
	return nil
}

// Len returns the number of cached tickets.
func (c *TicketCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.tickets)
}

// Resume tickets.
//
// Where a trust ticket skips a negotiation that already succeeded, a
// resume ticket continues one that was interrupted: when the transport
// fails or a deadline expires mid-negotiation, the local endpoint state
// is captured (SnapshotDOM) together with the unacknowledged message and
// its envelope sequence number. Re-presenting the ticket restores the
// endpoint and re-sends that message under the same sequence number, so
// the counterpart's reply cache makes the hand-off exactly-once whether
// or not the original delivery got through. The ticket is signed by its
// holder's own key — it never crosses the wire; the signature protects a
// ticket persisted to disk from tampering.

// ResumeTicket captures an interrupted negotiation for later resumption.
type ResumeTicket struct {
	// NegID is the negotiation id assigned by the remote service.
	NegID string
	// Resource is the negotiated resource.
	Resource string
	// Peer is the counterpart's name ("" when the interruption happened
	// before the first reply).
	Peer string
	// Seq is the envelope sequence number of LastSent; resumption re-sends
	// under the same number so a duplicate is detected remotely.
	Seq int64
	// Expires bounds how long the resumption is honored locally.
	Expires time.Time
	// LastSent is the message whose delivery was never acknowledged.
	LastSent *Message
	// State is the endpoint snapshot (SnapshotDOM output).
	State *xmldom.Node
	// Signature is the holder's Ed25519 signature (empty when unkeyed).
	Signature []byte
}

func (t *ResumeTicket) signedBytes() []byte {
	state, lastSent := "", ""
	if t.State != nil {
		state = t.State.XML()
	}
	if t.LastSent != nil {
		lastSent = t.LastSent.XML()
	}
	return []byte("trustvo-resume|" + t.NegID + "|" + t.Resource + "|" + t.Peer + "|" +
		fmt.Sprintf("%d", t.Seq) + "|" + t.Expires.UTC().Format(time.RFC3339) + "|" +
		state + "|" + lastSent)
}

// NewResumeTicket snapshots an in-flight endpoint into a resume ticket.
// lastSent/seq identify the message whose delivery is in doubt. The
// ticket is signed when the party holds keys.
func NewResumeTicket(ep *Endpoint, negID string, seq int64, lastSent *Message, ttl time.Duration) (*ResumeTicket, error) {
	state, err := ep.SnapshotDOM()
	if err != nil {
		return nil, err
	}
	if ttl <= 0 {
		ttl = 5 * time.Minute
	}
	t := &ResumeTicket{
		NegID:    negID,
		Resource: ep.resource,
		Peer:     ep.peer,
		Seq:      seq,
		Expires:  ep.party.now().Add(ttl).UTC().Truncate(time.Second),
		LastSent: lastSent,
		State:    state,
	}
	if ep.party.Keys != nil {
		t.Signature = ep.party.Keys.Sign(t.signedBytes())
	}
	return t, nil
}

// ErrBadResumeTicket reports an invalid or expired resume ticket.
var ErrBadResumeTicket = errors.New("negotiation: invalid resume ticket")

// Verify checks expiry, and — when the holder has keys and the ticket a
// signature — integrity under the holder's public key.
func (t *ResumeTicket) Verify(pub ed25519.PublicKey, now time.Time) error {
	if t.NegID == "" || t.State == nil || t.LastSent == nil {
		return fmt.Errorf("%w: incomplete", ErrBadResumeTicket)
	}
	if now.After(t.Expires) {
		return fmt.Errorf("%w: expired %s", ErrBadResumeTicket, t.Expires.Format(time.RFC3339))
	}
	if pub != nil && len(t.Signature) > 0 &&
		!ed25519.Verify(pub, t.signedBytes(), t.Signature) {
		return fmt.Errorf("%w: signature", ErrBadResumeTicket)
	}
	return nil
}

// DOM serializes the resume ticket (for persistence, not the wire).
func (t *ResumeTicket) DOM() *xmldom.Node {
	n := xmldom.NewElement("resumeTicket").
		SetAttr("negotiation", t.NegID).
		SetAttr("resource", t.Resource).
		SetAttr("peer", t.Peer).
		SetAttr("seq", fmt.Sprintf("%d", t.Seq)).
		SetAttr("expires", t.Expires.UTC().Format(time.RFC3339))
	if t.LastSent != nil {
		n.AppendChild(t.LastSent.DOM())
	}
	if t.State != nil {
		n.AppendChild(t.State.Clone())
	}
	if len(t.Signature) > 0 {
		sig := xmldom.NewElement("signature")
		sig.AppendChild(xmldom.NewText(base64.StdEncoding.EncodeToString(t.Signature)))
		n.AppendChild(sig)
	}
	return n
}

// ResumeTicketFromDOM parses a persisted resume ticket.
func ResumeTicketFromDOM(n *xmldom.Node) (*ResumeTicket, error) {
	if n == nil || n.Name != "resumeTicket" {
		return nil, fmt.Errorf("%w: expected <resumeTicket>", ErrBadResumeTicket)
	}
	exp, err := time.Parse(time.RFC3339, n.AttrOr("expires", ""))
	if err != nil {
		return nil, fmt.Errorf("%w: bad expiry: %w", ErrBadResumeTicket, err)
	}
	seq, err := strconv.ParseInt(n.AttrOr("seq", "0"), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("%w: bad seq: %w", ErrBadResumeTicket, err)
	}
	t := &ResumeTicket{
		NegID:    n.AttrOr("negotiation", ""),
		Resource: n.AttrOr("resource", ""),
		Peer:     n.AttrOr("peer", ""),
		Seq:      seq,
		Expires:  exp,
	}
	if tm := n.Child("tnMessage"); tm != nil {
		if t.LastSent, err = MessageFromDOM(tm); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadResumeTicket, err)
		}
	}
	if st := n.Child("negotiationState"); st != nil {
		t.State = st.Clone()
	}
	if sig := n.Child("signature"); sig != nil {
		if t.Signature, err = base64.StdEncoding.DecodeString(sig.Text()); err != nil {
			return nil, fmt.Errorf("%w: bad signature encoding: %w", ErrBadResumeTicket, err)
		}
	}
	return t, nil
}
