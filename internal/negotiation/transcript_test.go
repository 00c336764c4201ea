package negotiation_test

import (
	"bytes"
	"compress/gzip"
	"crypto/ed25519"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/pki"
	"trustvo/internal/workload"
	"trustvo/internal/xmldom"
)

var updateTranscripts = flag.Bool("update-transcripts", false, "rewrite testdata/transcripts from this tree")

// transcriptWorlds are the seeded worlds TestTranscriptsUnchanged runs:
// internal/workload's default worlds, and denser ones with wildcard
// terms, which give nodes several candidates and alternatives.
var transcriptWorlds = []struct {
	name  string
	seeds int64
	cfg   func(seed int64) workload.Config
}{
	{"default", 24, workload.DefaultConfig},
	{"wildcard", 16, func(seed int64) workload.Config {
		cfg := workload.DefaultConfig(seed)
		cfg.MaxAlternatives, cfg.MaxTermsPerPolicy, cfg.WildcardProb = 3, 2, 0.3
		return cfg
	}},
}

// TestTranscriptsUnchanged runs a negotiation over each seeded world
// under every strategy and compares every message both endpoints send,
// and every snapshot either writes after each message, with the
// transcripts in testdata/transcripts (gzip-compressed text), recorded
// from the map-based tree this engine replaced. Nonces and ownership
// proofs are random and are masked; the worlds' credentials are
// re-issued with fixed IDs, validity and keys so that everything else
// repeats exactly. Run with -update-transcripts to record the
// transcripts from this tree.
func TestTranscriptsUnchanged(t *testing.T) {
	for _, world := range transcriptWorlds {
		var b strings.Builder
		for seed := int64(1); seed <= world.seeds; seed++ {
			for _, st := range []negotiation.Strategy{negotiation.Standard, negotiation.Trusting, negotiation.Suspicious, negotiation.StrongSuspicious} {
				fmt.Fprintf(&b, "== %s seed %d strategy %s\n", world.name, seed, st)
				transcript(t, &b, world.cfg(seed), st)
			}
		}
		path := filepath.Join("testdata", "transcripts", world.name+".txt.gz")
		if *updateTranscripts {
			writeGzip(t, path, b.String())
			continue
		}
		want := readGzip(t, path)
		if got := b.String(); got != string(want) {
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s: line %d differs:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
		}
	}
}

// transcript negotiates over the world cfg generates, both parties
// using strategy st, and writes every message and snapshot to b.
func transcript(t *testing.T, b *strings.Builder, cfg workload.Config, st negotiation.Strategy) {
	t.Helper()
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fixCredentials(w.Requester, w.Controller)
	w.Requester.Strategy, w.Controller.Strategy = st, st
	eps := [2]*negotiation.Endpoint{negotiation.NewRequester(w.Requester, w.Resource), negotiation.NewController(w.Controller)}
	roles := [2]string{"requester", "controller"}
	msg, err := eps[0].Start()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "%s: %s\n", roles[0], mask(msg.XML()))
	for to := 1; msg != nil; to = 1 - to {
		if msg, err = eps[to].Handle(msg); err != nil {
			t.Fatal(err)
		}
		for i, ep := range eps {
			if ep.SnapshotErr() == nil {
				fmt.Fprintf(b, "  %s snapshot: %s\n", roles[i], mask(xmldom.String(ep.EncodeSnapshot)))
			}
		}
		if msg != nil {
			fmt.Fprintf(b, "%s: %s\n", roles[to], mask(msg.XML()))
		}
	}
	for i, ep := range eps {
		o := ep.Outcome()
		fmt.Fprintf(b, "  %s outcome: succeeded=%v reason=%q rounds=%d received=%d sent=%d\n",
			roles[i], o.Succeeded, o.Reason, o.Rounds, len(o.Received), len(o.Sent))
	}
}

// fixCredentials re-issues both parties' credentials with fixed IDs,
// validity and signing key, and has both trust the fixed key.
func fixCredentials(parties ...*negotiation.Party) {
	key := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	ca := &pki.Authority{Name: "WorkloadCA", Keys: &pki.KeyPair{Public: key.Public().(ed25519.PublicKey), Private: key}}
	from := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, p := range parties {
		for _, c := range p.Profile.All() {
			c.ID = "WorkloadCA-" + c.Type
			c.ValidFrom, c.ValidUntil = from, from.AddDate(100, 0, 0)
			c.Signature = ca.Keys.Sign(c.SignedBytes())
		}
		p.Trust = pki.NewTrustStore(ca)
	}
}

var random = regexp.MustCompile(`(<nonce>|<ownershipProof>|nonceRecv="|nonceSent=")[A-Za-z0-9+/=]*`)

// mask replaces the random values in a document with "*".
func mask(doc string) string { return random.ReplaceAllString(doc, "${1}*") }

func writeGzip(t *testing.T, path, text string) {
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write([]byte(text))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGzip(t *testing.T, path string) string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}
