package negotiation

import (
	"bytes"
	"crypto/ed25519"
	"encoding/base64"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"trustvo/internal/pki"
	"trustvo/internal/xmldom"
)

var updateTicketGolden = flag.Bool("update-tickets", false, "rewrite testdata/tickets.golden from this tree")

// The golden tickets are sealed under a key pair from a fixed seed, with
// fixed notAfter times, so that their bytes repeat exactly.
var (
	goldenNotAfter = time.Date(2031, 5, 6, 7, 8, 9, 0, time.UTC)
	goldenClock    = time.Date(2031, 5, 6, 6, 0, 0, 0, time.UTC)
)

func goldenKeys() *pki.KeyPair {
	priv := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{7}, ed25519.SeedSize))
	return &pki.KeyPair{Public: priv.Public().(ed25519.PublicKey), Private: priv}
}

// goldenTickets issues a trust ticket that expires at goldenNotAfter
// and suspends one restored endpoint into a resume ticket under the
// golden keys and into one without keys, at goldenClock.
func goldenTickets(t *testing.T) (tk *Ticket, keyed, keyless *ResumeTicket) {
	t.Helper()
	keys := goldenKeys()
	tk = IssueTicket(keys, "AircraftCo", "AerospaceCo", "VoMembership", goldenNotAfter.Sub(time.Now()))
	if !tk.Expires.Equal(goldenNotAfter) {
		t.Fatalf("ticket expires %v, want %v: the wall clock moved while issuing", tk.Expires, goldenNotAfter)
	}
	nonce := func(b byte) []byte { return bytes.Repeat([]byte{b}, pki.NonceSize) }
	snap, err := xmldom.ParseString(`<negotiationState role="requester" resource="VoMembership" peer="AircraftCo" phase="eval" rounds="2" seqPos="0" nonceSent="` +
		base64.StdEncoding.EncodeToString(nonce(1)) + `"><tree><node id="r" credType="VoMembership" owner="AircraftCo" state="open"></node></tree></negotiationState>`)
	if err != nil {
		t.Fatal(err)
	}
	lastSent := &Message{
		Type: MsgPolicy, From: "AerospaceCo", Resource: "VoMembership",
		Answers: []Answer{{NodeID: "r", Kind: AnswerDeny, Reason: "no <credential> & no policy"}},
		Nonce:   nonce(2),
	}
	for _, k := range []*pki.KeyPair{keys, nil} {
		p := &Party{Name: "AerospaceCo", Keys: k, Clock: func() time.Time { return goldenClock }}
		ep, err := RestoreEndpoint(p, snap)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewResumeTicket(ep, "neg-7", 3, lastSent, 10*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if k != nil {
			keyed = rt
		} else {
			keyless = rt
		}
	}
	return tk, keyed, keyless
}

// TestTicketsGolden pins the sealed ticket formats to the bytes in
// testdata/tickets.golden: a trust ticket inside the <tnMessage> that
// grants it, and a keyed and a keyless resume ticket as persisted
// (ResumeTicket.XML). Each must be written byte for byte, decode to the
// values it was written from, re-encode to the same bytes, and, when
// keyed, verify. Run with -update-tickets to record the file from this
// tree.
func TestTicketsGolden(t *testing.T) {
	tk, keyed, keyless := goldenTickets(t)
	grant := &Message{Type: MsgSuccess, From: "AircraftCo", Resource: "VoMembership", Grant: []byte("membership"), Ticket: tk}
	got := []string{grant.XML(), keyed.XML(), keyless.XML()}
	path := filepath.Join("testdata", "tickets.golden")
	if *updateTicketGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s holds %d documents, want %d", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("document %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	now := goldenClock

	m, err := ParseMessage(want[0])
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Ticket; d == nil || d.Issuer != tk.Issuer || d.Peer != tk.Peer || d.Resource != tk.Resource ||
		!d.Expires.Equal(tk.Expires) || !bytes.Equal(d.Signature, tk.Signature) {
		t.Fatalf("decoded ticket %+v, want %+v", m.Ticket, tk)
	}
	if m.XML() != want[0] {
		t.Errorf("decoded grant re-encodes to %s", m.XML())
	}
	if err := m.Ticket.Verify(goldenKeys(), tk.Peer, tk.Resource, now); err != nil {
		t.Errorf("golden trust ticket: %v", err)
	}

	for i, rt := range []*ResumeTicket{keyed, keyless} {
		d, err := ParseResumeTicket(want[1+i])
		if err != nil {
			t.Fatal(err)
		}
		if d.NegID != rt.NegID || d.Resource != rt.Resource || d.Peer != rt.Peer || d.Seq != rt.Seq ||
			!d.Expires.Equal(rt.Expires) || !bytes.Equal(d.Signature, rt.Signature) ||
			d.LastSent == nil || d.LastSent.XML() != rt.LastSent.XML() || !xmldom.Equal(d.State, rt.State) {
			t.Fatalf("decoded resume ticket %d: %+v, want %+v", i, d, rt)
		}
		if d.XML() != want[1+i] {
			t.Errorf("decoded resume ticket %d re-encodes to %s", i, d.XML())
		}
		keys := goldenKeys()
		if rt == keyless {
			keys = nil
		}
		if err := d.Verify(keys, now); err != nil {
			t.Errorf("golden resume ticket %d: %v", i, err)
		}
	}
	if len(keyed.Signature) == 0 || len(keyless.Signature) != 0 {
		t.Fatalf("keyed ticket sealed %d bytes, keyless %d", len(keyed.Signature), len(keyless.Signature))
	}
}
