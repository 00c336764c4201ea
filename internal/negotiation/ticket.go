package negotiation

import (
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
// A ticket is the statement <ticket issuer peer resource/>, sealed
// (pki.Sealed) under the issuer's key pair until it expires. The issuer
// opens its own seal on presentation, so no extra trust setup is needed.

// Ticket is a trust ticket for one (peer, resource) pair.
type Ticket struct {
	Issuer    string
	Peer      string
	Resource  string
	Expires   time.Time
	Signature []byte
}

// sealed is the ticket in its pki.Sealed form, derived from the fields:
// the payload is <ticket issuer peer resource/>.
func (t *Ticket) sealed() *pki.Sealed {
	payload := &xmldom.Node{Type: xmldom.ElementNode, Name: "ticket", Attrs: []xmldom.Attr{
		{Name: "issuer", Value: t.Issuer}, {Name: "peer", Value: t.Peer}, {Name: "resource", Value: t.Resource},
	}}
	return &pki.Sealed{Label: pki.LabelTicket, NotAfter: t.Expires, Payload: payload, Signature: t.Signature}
}

// IssueTicket seals a ticket for peer over resource, valid for ttl.
func IssueTicket(keys *pki.KeyPair, issuer, peer, resource string, ttl time.Duration) *Ticket {
	t := &Ticket{Issuer: issuer, Peer: peer, Resource: resource, Expires: time.Now().Add(ttl)}
	s := t.sealed()
	s.Seal(keys)
	t.Expires, t.Signature = s.NotAfter, s.Signature
	return t
}

// ErrBadTicket reports an invalid or expired trust ticket.
var ErrBadTicket = errors.New("negotiation: invalid trust ticket")

// Verify checks that the ticket is bound to peer and resource, then
// opens its seal under the issuer's key pair at now.
func (t *Ticket) Verify(keys *pki.KeyPair, peer, resource string, now time.Time) error {
	if t.Peer != peer || t.Resource != resource {
		return fmt.Errorf("%w: bound to %s/%s", ErrBadTicket, t.Peer, t.Resource)
	}
	if _, err := t.sealed().Open(keys, pki.LabelTicket, now); err != nil {
		return fmt.Errorf("%w: %w", ErrBadTicket, err)
	}
	return nil
}

func ticketFromDOM(n *xmldom.Node) (*Ticket, error) {
	s, err := pki.ParseSealed(n)
	if err != nil {
		return nil, fmt.Errorf("%w: ticket: %w", ErrBadMessage, err)
	}
	p := s.Payload
	return &Ticket{
		Issuer:    p.AttrOr("issuer", ""),
		Peer:      p.AttrOr("peer", ""),
		Resource:  p.AttrOr("resource", ""),
		Expires:   s.NotAfter,
		Signature: s.Signature,
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
	k := ticketKey(issuer, resource)
	return c.live(k, c.tickets[k], now)
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
		if t.Resource == resource && c.live(k, t, now) != nil {
			return t
		}
	}
	return nil
}

// live returns the ticket cached under k, or nil after dropping it once
// it has expired. c.mu must be held.
func (c *TicketCache) live(k string, t *Ticket, now time.Time) *Ticket {
	if t != nil && pki.Expired(t.Expires, now) {
		delete(c.tickets, k)
		return nil
	}
	return t
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
// or not the original delivery got through. The ticket is sealed
// (pki.Sealed) under its holder's own key pair when the holder has one —
// it never crosses the wire; the seal protects a ticket persisted to disk
// from tampering.

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
	// Signature is the holder's seal (empty when unkeyed).
	Signature []byte
}

// sealed is the ticket's pki.Sealed form, derived from the fields: the
// payload is <resumeTicket negotiation resource peer seq>[LastSent][State].
func (t *ResumeTicket) sealed() *pki.Sealed {
	payload := xmldom.NewElement("resumeTicket").
		SetAttr("negotiation", t.NegID).
		SetAttr("resource", t.Resource).
		SetAttr("peer", t.Peer).
		SetAttr("seq", strconv.FormatInt(t.Seq, 10))
	if t.LastSent != nil {
		payload.AppendChild(t.LastSent.DOM())
	}
	if t.State != nil {
		payload.AppendChild(t.State.Clone())
	}
	return &pki.Sealed{Label: pki.LabelResume, NotAfter: t.Expires, Payload: payload, Signature: t.Signature}
}

// NewResumeTicket snapshots an in-flight endpoint into a resume ticket.
// lastSent/seq identify the message whose delivery is in doubt. The
// ticket is sealed when the party holds keys.
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
		s := t.sealed()
		s.Seal(ep.party.Keys)
		t.Signature = s.Signature
	}
	return t, nil
}

// ErrBadResumeTicket reports an invalid or expired resume ticket.
var ErrBadResumeTicket = errors.New("negotiation: invalid resume ticket")

// Verify checks expiry, then the seal, then completeness; a holder with
// keys must find a valid seal, a keyless one (nil) has none to check. An
// expired ticket's error also matches pki.ErrTicketExpired.
func (t *ResumeTicket) Verify(keys *pki.KeyPair, now time.Time) error {
	_, err := t.sealed().Open(keys, pki.LabelResume, now)
	if keys == nil && errors.Is(err, pki.ErrBadSignature) {
		err = nil
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadResumeTicket, err)
	}
	if t.NegID == "" || t.State == nil || t.LastSent == nil {
		return fmt.Errorf("%w: incomplete", ErrBadResumeTicket)
	}
	return nil
}

// DOM returns the ticket's sealed form, for persistence (not the wire).
func (t *ResumeTicket) DOM() *xmldom.Node { return xmldom.Tree(t.sealed().Encode) }

// ResumeTicketFromDOM parses a persisted resume ticket.
func ResumeTicketFromDOM(n *xmldom.Node) (*ResumeTicket, error) {
	s, err := pki.ParseSealed(n)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadResumeTicket, err)
	}
	p := s.Payload
	if p.Name != "resumeTicket" {
		return nil, fmt.Errorf("%w: sealed <%s>, want <resumeTicket>", ErrBadResumeTicket, p.Name)
	}
	seq, err := strconv.ParseInt(p.AttrOr("seq", "0"), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("%w: bad seq: %w", ErrBadResumeTicket, err)
	}
	t := &ResumeTicket{
		NegID:     p.AttrOr("negotiation", ""),
		Resource:  p.AttrOr("resource", ""),
		Peer:      p.AttrOr("peer", ""),
		Seq:       seq,
		Expires:   s.NotAfter,
		Signature: s.Signature,
	}
	if tm := p.Child("tnMessage"); tm != nil {
		if t.LastSent, err = MessageFromDOM(tm); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadResumeTicket, err)
		}
	}
	if st := p.Child("negotiationState"); st != nil {
		t.State = st.Clone()
	}
	return t, nil
}
