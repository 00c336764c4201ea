package xmldom_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/pki"
	"trustvo/internal/xmldom"
	"trustvo/internal/xtnl"
)

// wireDocuments returns the compact documents a join puts on the wire or
// in the store: a credential, a policy, a message of every type (those
// of a successful negotiation, and a continue, an ack and a fail), and a
// sealed standby ship.
func wireDocuments(t *testing.T) map[string]string {
	t.Helper()
	const resource = "R"
	ca := pki.MustNewAuthority("CertCA")
	cred := ca.MustIssue(pki.IssueRequest{
		Type: "WebDesignerQuality", Holder: "Req",
		Attributes: []xtnl.Attribute{{Name: "regulation", Value: "UNI EN ISO 9000"}},
	})
	pol := xtnl.MustParsePolicies(resource + " <- WebDesignerQuality(regulation='UNI EN ISO 9000')")[0]
	docs := map[string]string{
		"credential":       xmldom.String(cred.Encode),
		"policy":           xmldom.String(pol.Encode),
		"message continue": xmldom.String((&negotiation.Message{Type: negotiation.MsgContinue, From: "Req"}).Encode),
		"message ack":      xmldom.String((&negotiation.Message{Type: negotiation.MsgAck, From: "Ctl", Nonce: []byte{7, 8}}).Encode),
		"message fail":     xmldom.String((&negotiation.Message{Type: negotiation.MsgFail, From: "Ctl", Reason: "no <view> & no luck"}).Encode),
	}
	prof := xtnl.NewProfile("Req")
	prof.Add(cred)
	req := negotiation.NewRequester(&negotiation.Party{
		Name: "Req", Profile: prof, Policies: xtnl.MustPolicySet(), Trust: pki.NewTrustStore(ca),
	}, resource)
	ctl := negotiation.NewController(&negotiation.Party{
		Name: "Ctl", Profile: xtnl.NewProfile("Ctl"), Policies: xtnl.MustPolicySet(pol), Trust: pki.NewTrustStore(ca),
		Grant: func(resource, peer string) ([]byte, error) { return []byte("granted"), nil },
	})
	msg, err := req.Start()
	if err != nil {
		t.Fatal(err)
	}
	from, to := req, ctl
	for msg != nil {
		docs["message "+msg.Type.String()] = xmldom.String(msg.Encode)
		reply, err := to.Handle(msg)
		if err != nil {
			t.Fatal(err)
		}
		if to == ctl && !ctl.Done() {
			docs["sealed ship"] = pki.Seal(pki.MustGenerateKeyPair(), pki.LabelStandby, time.Now().Add(time.Minute), ctl.EncodeSnapshot)
		}
		from, to, msg = to, from, reply
	}
	if out := req.Outcome(); out == nil || !out.Succeeded {
		t.Fatalf("negotiation outcome %+v", out)
	}
	for typ := negotiation.MsgRequest; typ <= negotiation.MsgFail; typ++ {
		if docs["message "+typ.String()] == "" {
			t.Fatalf("no %s message", typ)
		}
	}
	return docs
}

func nodeCount(root *xmldom.Node) int {
	n := 0
	root.Walk(func(*xmldom.Node) bool { n++; return true })
	return n
}

// TestNodeSlotsFitDocument: the node slab of a parse holds exactly the
// parsed nodes for the compact documents the Writer writes, and never
// more slots than the count of '<' plus one.
func TestNodeSlotsFitDocument(t *testing.T) {
	for name, doc := range wireDocuments(t) {
		root, err := xmldom.ParseString(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := xmldom.NodeSlots(doc), nodeCount(root); got != want {
			t.Errorf("%s: %d node slots for %d nodes", name, got, want)
		}
	}
	files, err := filepath.Glob("../../testdata/*.xml")
	if err != nil {
		t.Fatal(err)
	}
	more, _ := filepath.Glob("testdata/*.xml")
	files = append(files, more...)
	if len(files) < 2 {
		t.Fatalf("testdata files: %v", files)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		doc := string(raw)
		root, err := xmldom.ParseString(doc)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		slots, nodes, bound := xmldom.NodeSlots(doc), nodeCount(root), strings.Count(doc, "<")+1
		if slots > bound {
			t.Errorf("%s: %d node slots, more than the %d of count('<')+1", f, slots, bound)
		}
		if slots < nodes {
			t.Errorf("%s: %d node slots for %d nodes of indented markup", f, slots, nodes)
		}
	}
}
