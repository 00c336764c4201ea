package negotiation

import (
	"cmp"
	"errors"
	"fmt"
	"strconv"
	"strings"
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
// (pki.Seal) under the issuer's key pair until it expires. The issuer
// opens its own seal on presentation, so no extra trust setup is needed.

// Ticket is a trust ticket for one (peer, resource) pair.
type Ticket struct {
	Issuer    string
	Peer      string
	Resource  string
	Expires   time.Time
	Signature []byte
}

// encode writes the ticket's wire form, its fields sealed under its tag.
func (t *Ticket) encode(w *xmldom.Writer) {
	pki.EncodeSealed(w, pki.LabelTicket, t.Expires, t.encodePayload, t.Signature)
}

// encodePayload writes the sealed statement: <ticket issuer peer resource/>.
func (t *Ticket) encodePayload(w *xmldom.Writer) {
	w.Start("ticket")
	w.Attr("issuer", t.Issuer)
	w.Attr("peer", t.Peer)
	w.Attr("resource", t.Resource)
	w.End()
}

// IssueTicket seals a ticket for peer over resource, valid for ttl.
func IssueTicket(keys *pki.KeyPair, issuer, peer, resource string, ttl time.Duration) *Ticket {
	t := &Ticket{Issuer: issuer, Peer: peer, Resource: resource, Expires: time.Now().Add(ttl).UTC().Truncate(time.Second)}
	t.Signature = sealTag(pki.Seal(keys, pki.LabelTicket, t.Expires, t.encodePayload), pki.LabelTicket)
	return t
}

// sealTag returns the tag of wire, a seal for label that pki.Seal has
// just written.
func sealTag(wire, label string) []byte {
	r := xmldom.NewReader(wire)
	defer r.Close()
	r.Child(0)
	_, tag, _ := pki.DecodeSealed(r, label, nil)
	return tag
}

// ErrBadTicket reports an invalid or expired trust ticket.
var ErrBadTicket = errors.New("negotiation: invalid trust ticket")

// Verify checks that the ticket is bound to peer and resource, then
// opens its seal under the issuer's key pair at now.
func (t *Ticket) Verify(keys *pki.KeyPair, peer, resource string, now time.Time) error {
	if t.Peer != peer || t.Resource != resource {
		return fmt.Errorf("%w: bound to %s/%s", ErrBadTicket, t.Peer, t.Resource)
	}
	if _, err := pki.OpenWire(keys, xmldom.String(t.encode), pki.LabelTicket, now); err != nil {
		return fmt.Errorf("%w: %w", ErrBadTicket, err)
	}
	return nil
}

// decodeTicket reads the ticket whose <sealed> start tag r has just
// read, to its end.
func decodeTicket(r *xmldom.Reader) (*Ticket, error) {
	t := new(Ticket)
	var err error
	t.Expires, t.Signature, err = pki.DecodeSealed(r, pki.LabelTicket, func(r *xmldom.Reader) error {
		t.Issuer, t.Peer, t.Resource = r.AttrOr("issuer", ""), r.AttrOr("peer", ""), r.AttrOr("resource", "")
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%w: ticket: %w", ErrBadMessage, err)
	}
	return t, nil
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

// Put stores a copy of t whose strings it has cloned: a decoded ticket's
// strings are substrings of the message it came in (xmldom's retention
// rule), and the cache keeps the ticket for its whole TTL.
func (c *TicketCache) Put(t *Ticket) {
	if c == nil || t == nil {
		return
	}
	kept := *t
	kept.Issuer, kept.Peer, kept.Resource = strings.Clone(t.Issuer), strings.Clone(t.Peer), strings.Clone(t.Resource)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tickets[ticketKey(kept.Issuer, kept.Resource)] = &kept
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
// (pki.Seal) under its holder's own key pair when the holder has one —
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

// encode writes the ticket's sealed form, with no <signature> if unkeyed.
func (t *ResumeTicket) encode(w *xmldom.Writer) {
	pki.EncodeSealed(w, pki.LabelResume, t.Expires, t.encodePayload, t.Signature)
}

// encodePayload writes the sealed statement, <resumeTicket negotiation
// resource peer seq>[LastSent][State].
func (t *ResumeTicket) encodePayload(w *xmldom.Writer) {
	w.Start("resumeTicket")
	w.Attr("negotiation", t.NegID)
	w.Attr("resource", t.Resource)
	w.Attr("peer", t.Peer)
	w.AttrInt("seq", t.Seq)
	if t.LastSent != nil {
		t.LastSent.Encode(w)
	}
	if t.State != nil {
		t.State.Encode(w)
	}
	w.End()
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
		t.Signature = sealTag(pki.Seal(ep.party.Keys, pki.LabelResume, t.Expires, t.encodePayload), pki.LabelResume)
	}
	return t, nil
}

// ErrBadResumeTicket reports an invalid or expired resume ticket.
var ErrBadResumeTicket = errors.New("negotiation: invalid resume ticket")

// Verify opens the ticket's seal at now, as pki.OpenWire checks it,
// then checks completeness; a holder with keys must find a valid seal, a
// keyless one (nil) has none and checks expiry alone. An expired
// ticket's error also matches pki.ErrTicketExpired.
func (t *ResumeTicket) Verify(keys *pki.KeyPair, now time.Time) error {
	var err error
	switch {
	case keys != nil:
		_, err = pki.OpenWire(keys, xmldom.String(t.encode), pki.LabelResume, now)
	case pki.Expired(t.Expires, now):
		err = fmt.Errorf("%w: %s notAfter %s", pki.ErrTicketExpired, pki.LabelResume, t.Expires.UTC().Format(time.RFC3339))
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadResumeTicket, err)
	}
	if t.NegID == "" || t.State == nil || t.LastSent == nil {
		return fmt.Errorf("%w: incomplete", ErrBadResumeTicket)
	}
	return nil
}

// XML returns the ticket's sealed form, for persistence (not the wire).
func (t *ResumeTicket) XML() string { return xmldom.String(t.encode) }

// ParseResumeTicket decodes a persisted resume ticket from its bytes.
func ParseResumeTicket(xml string) (*ResumeTicket, error) {
	r := xmldom.NewReader(xml)
	r.Child(0)
	t := new(ResumeTicket)
	var err error
	t.Expires, t.Signature, err = pki.DecodeSealed(r, pki.LabelResume, t.decodePayload)
	if err := cmp.Or(r.Close(), err); err != nil { // a syntax error wins
		return nil, fmt.Errorf("%w: %w", ErrBadResumeTicket, err)
	}
	return t, nil
}

// decodePayload reads the <resumeTicket> whose start tag r has just
// read, to its end: of its children, the first <tnMessage> and the first
// <negotiationState> count.
func (t *ResumeTicket) decodePayload(r *xmldom.Reader) error {
	if r.Name() != "resumeTicket" {
		return fmt.Errorf("sealed <%s>, want <resumeTicket>", r.Name())
	}
	seq, err := strconv.ParseInt(r.AttrOr("seq", "0"), 10, 64)
	if err != nil {
		return fmt.Errorf("bad seq: %w", err)
	}
	t.NegID, t.Resource, t.Peer, t.Seq = r.AttrOr("negotiation", ""), r.AttrOr("resource", ""), r.AttrOr("peer", ""), seq
	for d := r.Depth(); r.Child(d); {
		switch {
		case r.Name() == "tnMessage" && t.LastSent == nil && err == nil:
			t.LastSent, err = DecodeMessage(r)
		case r.Name() == "negotiationState" && t.State == nil:
			t.State = r.Node().Clone()
		}
	}
	return err
}
