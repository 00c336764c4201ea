package negotiation

import (
	"encoding/base64"
	"strings"
	"testing"
	"time"
	"unsafe"

	"trustvo/internal/pki"
)

func TestTicketVerify(t *testing.T) {
	keys := pki.MustGenerateKeyPair()
	tk := IssueTicket(keys, "AircraftCo", "AerospaceCo", "Certification", time.Hour)
	now := time.Now()
	if err := tk.Verify(keys, "AerospaceCo", "Certification", now); err != nil {
		t.Fatal(err)
	}
	// wrong peer
	if err := tk.Verify(keys, "Mallory", "Certification", now); err == nil {
		t.Fatal("wrong peer accepted")
	}
	// wrong resource
	if err := tk.Verify(keys, "AerospaceCo", "Other", now); err == nil {
		t.Fatal("wrong resource accepted")
	}
	// expired
	if err := tk.Verify(keys, "AerospaceCo", "Certification", now.Add(2*time.Hour)); err == nil {
		t.Fatal("expired ticket accepted")
	}
	// wrong key
	other := pki.MustGenerateKeyPair()
	if err := tk.Verify(other, "AerospaceCo", "Certification", now); err == nil {
		t.Fatal("foreign key accepted")
	}
	// tampered fields
	forged := *tk
	forged.Resource = "Everything"
	if err := forged.Verify(keys, "AerospaceCo", "Everything", now); err == nil {
		t.Fatal("tampered ticket accepted")
	}
}

// TestTicketFieldsDoNotSplice: the seal covers the peer and resource as
// separate attributes, so a '|' in one cannot be moved into the other.
// The ticket's signed bytes used to join the fields with '|', which let
// a ticket for peer "p|x" and resource "r" verify for peer "p" and
// resource "x|r".
func TestTicketFieldsDoNotSplice(t *testing.T) {
	keys := pki.MustGenerateKeyPair()
	now := time.Now()
	for _, c := range []struct{ issuedPeer, issuedResource, peer, resource string }{
		{"p|x", "r", "p", "x|r"},
		{"p", "x|r", "p|x", "r"},
	} {
		tk := IssueTicket(keys, "ctl", c.issuedPeer, c.issuedResource, time.Hour)
		relabelled := *tk
		relabelled.Peer, relabelled.Resource = c.peer, c.resource
		if err := relabelled.Verify(keys, c.peer, c.resource, now); err == nil {
			t.Fatalf("ticket for %q/%q verified as %q/%q", c.issuedPeer, c.issuedResource, c.peer, c.resource)
		}
	}
}

func TestTicketCache(t *testing.T) {
	c := NewTicketCache()
	keys := pki.MustGenerateKeyPair()
	now := time.Now()
	c.Put(IssueTicket(keys, "a", "me", "R1", time.Hour))
	c.Put(IssueTicket(keys, "b", "me", "R2", -time.Hour)) // already expired
	if got := c.Get("a", "R1", now); got == nil {
		t.Fatal("cached ticket missing")
	}
	if got := c.Get("b", "R2", now); got != nil {
		t.Fatal("expired ticket served")
	}
	if got := c.GetByResource("R1", now); got == nil || got.Issuer != "a" {
		t.Fatalf("GetByResource = %+v", got)
	}
	if got := c.GetByResource("R2", now); got != nil {
		t.Fatal("expired ticket served by resource")
	}
	if c.Len() != 1 { // expired entries were dropped on access
		t.Fatalf("Len = %d", c.Len())
	}
	// nil-safety
	var nilCache *TicketCache
	nilCache.Put(nil)
	if nilCache.Get("a", "R1", now) != nil || nilCache.GetByResource("R1", now) != nil || nilCache.Len() != 0 {
		t.Fatal("nil cache misbehaved")
	}
}

// TestTicketSkipsRenegotiation: the first negotiation runs the full
// protocol and yields a ticket; the second presents it and completes in
// two messages.
func TestTicketSkipsRenegotiation(t *testing.T) {
	f := newFixture(t)
	f.aircraft.TicketTTL = time.Hour
	f.aerospace.Tickets = NewTicketCache()

	first, _, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if !first.Succeeded {
		t.Fatalf("first negotiation failed: %s", first.Reason)
	}
	if f.aerospace.Tickets.Len() != 1 {
		t.Fatalf("ticket not cached: %d", f.aerospace.Tickets.Len())
	}

	second, _, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if !second.Succeeded {
		t.Fatalf("ticketed negotiation failed: %s", second.Reason)
	}
	if second.Rounds >= first.Rounds {
		t.Fatalf("ticket did not shorten the negotiation: %d vs %d rounds", second.Rounds, first.Rounds)
	}
	if len(second.Sent) != 0 || len(second.Received) != 0 {
		t.Fatal("ticketed negotiation should disclose nothing")
	}
}

// TestForgedTicketIgnored: a ticket signed by someone else falls back to
// the full negotiation instead of failing (graceful degradation) — and
// the negotiation still succeeds on the merits.
func TestForgedTicketIgnored(t *testing.T) {
	f := newFixture(t)
	mallory := pki.MustGenerateKeyPair()
	f.aerospace.Tickets = NewTicketCache()
	f.aerospace.Tickets.Put(IssueTicket(mallory, "AircraftCo", "AerospaceCo", "VoMembership", time.Hour))

	out, ctlOut, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if !out.Succeeded {
		t.Fatalf("fallback negotiation failed: %s", out.Reason)
	}
	// the full protocol ran: credentials were exchanged
	if len(ctlOut.Received) == 0 {
		t.Fatal("expected a full negotiation after the forged ticket")
	}
}

// TestTicketBoundToPeer: a stolen ticket presented by another party is
// rejected (the binding includes the peer name) and the thief must run
// the full negotiation.
func TestTicketBoundToPeer(t *testing.T) {
	f := newFixture(t)
	f.aircraft.Keys = f.aircraftKeys
	// the ticket was issued to AerospaceCo...
	stolen := IssueTicket(f.aircraftKeys, "AircraftCo", "AerospaceCo", "VoMembership", time.Hour)
	// ...but a different party presents it
	thiefProfile := f.aerospace.Profile
	thief := &Party{
		Name:     "ThiefCo",
		Profile:  thiefProfile,
		Policies: f.aerospace.Policies,
		Trust:    f.aerospace.Trust,
		Tickets:  NewTicketCache(),
	}
	thief.Tickets.Put(stolen)
	out, _, err := Run(thief, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	// the thief still succeeds — but only because it (ab)uses the same
	// profile and runs the FULL negotiation; the point is the ticket
	// short-circuit did not trigger for the wrong peer.
	if !out.Succeeded {
		t.Fatalf("negotiation failed: %s", out.Reason)
	}
	if len(out.Sent) == 0 {
		t.Fatal("stolen ticket skipped the negotiation")
	}
}

func TestTicketWireRoundTrip(t *testing.T) {
	keys := pki.MustGenerateKeyPair()
	tk := IssueTicket(keys, "a", "b", "R", time.Hour)
	m := &Message{Type: MsgSuccess, From: "a", Ticket: tk, Grant: []byte("g")}
	re, err := ParseMessage(m.XML())
	if err != nil {
		t.Fatal(err)
	}
	if re.Ticket == nil || re.Ticket.Issuer != "a" || re.Ticket.Peer != "b" || re.Ticket.Resource != "R" {
		t.Fatalf("ticket lost: %+v", re.Ticket)
	}
	if err := re.Ticket.Verify(keys, "b", "R", time.Now()); err != nil {
		t.Fatalf("ticket signature lost in transit: %v", err)
	}
	// malformed wire tickets rejected
	if _, err := ParseMessage(`<tnMessage type="success"><sealed label="trustvo-ticket" notAfter="nope"><ticket/><signature>c2ln</signature></sealed></tnMessage>`); err == nil {
		t.Fatal("bad ticket expiry accepted")
	}
	if _, err := ParseMessage(`<tnMessage type="success"><sealed label="trustvo-ticket" notAfter="2026-01-01T00:00:00Z"><ticket/><signature>!!</signature></sealed></tnMessage>`); err == nil {
		t.Fatal("bad ticket signature encoding accepted")
	}
}

// TestTicketCacheClonesStrings: a decoded ticket's issuer, peer and
// resource are substrings of the message it came in, and the cache keeps
// a ticket for its whole TTL, so the ticket it keeps must not point into
// that message. It used to keep the decoded ticket itself.
func TestTicketCacheClonesStrings(t *testing.T) {
	keys := pki.MustGenerateKeyPair()
	tk := IssueTicket(keys, "AircraftCo", "AerospaceCo", "VoMembership", time.Hour)
	wire := (&Message{Type: MsgSuccess, From: "AircraftCo", Ticket: tk}).XML()
	within := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		b := uintptr(unsafe.Pointer(unsafe.StringData(wire)))
		return s != "" && p >= b && p < b+uintptr(len(wire))
	}
	m, err := ParseMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	if m.Ticket == nil || !within(m.Ticket.Issuer) || !within(m.Ticket.Peer) || !within(m.Ticket.Resource) {
		t.Fatal("test setup: the decoded ticket's strings are not substrings of the message")
	}
	c := NewTicketCache()
	c.Put(m.Ticket)
	kept := c.Get("AircraftCo", "VoMembership", time.Now())
	if kept == nil {
		t.Fatal("ticket not cached")
	}
	if within(kept.Issuer) || within(kept.Peer) || within(kept.Resource) {
		t.Fatalf("the cached ticket holds substrings of its message: %+v", kept)
	}
	if err := kept.Verify(keys, "AerospaceCo", "VoMembership", time.Now()); err != nil {
		t.Fatalf("the cached ticket no longer verifies: %v", err)
	}
}

// TestTicketsVerifyOnlyAsSealed: a ticket whose tag is spelled otherwise
// than sealed, or that carries another label, is refused, by the decoder
// or by Verify, as a ship is. The lenient base64 decoder read a tag
// whose padding bits differ, or that holds a newline, as the same bytes,
// and the label was not read, so a trust ticket carried in a message, or
// a keyed resume ticket persisted, so re-spelled verified.
func TestTicketsVerifyOnlyAsSealed(t *testing.T) {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	respell := func(t *testing.T, doc string, tag []byte) map[string]string {
		t.Helper()
		text := base64.StdEncoding.EncodeToString(tag)
		if len(text) != 44 || !strings.Contains(doc, ">"+text+"<") {
			t.Fatalf("tag %s not in %s", text, doc)
		}
		last := strings.IndexByte(alphabet, text[42])
		return map[string]string{
			"padding bits":        strings.Replace(doc, text, text[:42]+string(alphabet[last^1])+"=", 1),
			"newline":             strings.Replace(doc, text, text[:20]+"\n"+text[20:], 1),
			"character reference": strings.Replace(doc, text, text[:20]+"&#10;"+text[20:], 1),
			"another label":       strings.Replace(doc, ` label="`, ` label="x`, 1),
		}
	}
	keys := goldenKeys()
	tk, keyed, _ := goldenTickets(t)
	grant := (&Message{Type: MsgSuccess, From: "AircraftCo", Resource: "VoMembership", Ticket: tk}).XML()
	for name, doc := range respell(t, grant, tk.Signature) {
		m, err := ParseMessage(doc)
		if err == nil && m.Ticket.Verify(keys, tk.Peer, tk.Resource, goldenClock) == nil {
			t.Errorf("trust ticket with its tag re-spelled (%s) verified: %s", name, doc)
		}
	}
	persisted := keyed.XML()
	for name, doc := range respell(t, persisted, keyed.Signature) {
		rt, err := ParseResumeTicket(doc)
		if err == nil && rt.Verify(keys, goldenClock) == nil {
			t.Errorf("resume ticket with its tag re-spelled (%s) verified: %s", name, doc)
		}
	}
	// As sealed, both verify.
	if m, err := ParseMessage(grant); err != nil || m.Ticket.Verify(keys, tk.Peer, tk.Resource, goldenClock) != nil {
		t.Fatalf("trust ticket as sealed: %v", err)
	}
	if rt, err := ParseResumeTicket(persisted); err != nil || rt.Verify(keys, goldenClock) != nil {
		t.Fatalf("resume ticket as sealed: %v", err)
	}
}

// BenchmarkNegotiationWithTicket quantifies the trust-ticket speedup
// (EXT-9).
func BenchmarkNegotiationWithTicket(b *testing.B) {
	f := newFixture(b)
	f.aircraft.TicketTTL = time.Hour
	f.aerospace.Tickets = NewTicketCache()
	if out, _, err := Run(f.aerospace, f.aircraft, "VoMembership"); err != nil || !out.Succeeded {
		b.Fatalf("priming negotiation failed: %v %+v", err, out)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := Run(f.aerospace, f.aircraft, "VoMembership")
		if err != nil || !out.Succeeded {
			b.Fatalf("ticketed negotiation failed: %v %+v", err, out)
		}
	}
}
