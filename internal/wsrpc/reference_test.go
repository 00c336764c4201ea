package wsrpc

import (
	"strconv"
	"testing"

	"trustvo/internal/negotiation"
	"trustvo/internal/xmldom"
)

// The builders below assemble the wsrpc documents node by node, as the
// service did before it wrote them through xmldom.Writer. Tests edit
// these trees to forge request bodies, and TestDocumentsMatchReference
// checks the encoded documents against them byte for byte.

func envelope(negID string, m *negotiation.Message) *xmldom.Node {
	return envelopeSeq(negID, 0, m)
}

func envelopeSeq(negID string, seq int64, m *negotiation.Message) *xmldom.Node {
	env := xmldom.NewElement("envelope").SetAttr("negotiation", negID)
	if seq > 0 {
		env.SetAttr("seq", strconv.FormatInt(seq, 10))
	}
	env.AppendChild(m.DOM())
	return env
}

func refStatus(id string, done bool, out *negotiation.Outcome) *xmldom.Node {
	n := xmldom.NewElement("status").
		SetAttr("negotiation", id).
		SetAttr("done", boolStr(done))
	if out != nil {
		n.SetAttr("succeeded", boolStr(out.Succeeded))
		if out.Reason != "" {
			n.SetAttr("reason", out.Reason)
		}
	}
	return n
}

func refFault(code, detail string) *xmldom.Node {
	n := xmldom.NewElement("fault").SetAttr("code", code)
	n.AppendChild(xmldom.NewText(detail))
	return n
}

func TestDocumentsMatchReference(t *testing.T) {
	msgs := []*negotiation.Message{
		{Type: negotiation.MsgRequest, From: `a&"b"`, Resource: "R<1>", Strategy: negotiation.Suspicious},
		{Type: negotiation.MsgFail, From: "x", Reason: ""},
		{Type: negotiation.MsgSuccess, From: "x", Grant: []byte("g"), Nonce: []byte{0, 1, 2}},
	}
	for _, m := range msgs {
		for _, seq := range []int64{0, 1, 42, 1 << 40} {
			if got, want := envelopeXML("n&1", seq, m), envelopeSeq("n&1", seq, m).XML(); got != want {
				t.Errorf("envelope seq=%d:\n got  %s\n want %s", seq, got, want)
			}
		}
	}
	for _, out := range []*negotiation.Outcome{nil, {Succeeded: true}, {Reason: `no <"cred">`}} {
		for _, done := range []bool{false, true} {
			if got, want := statusXML("id", done, out), refStatus("id", done, out).XML(); got != want {
				t.Errorf("status:\n got  %s\n want %s", got, want)
			}
		}
	}
	for _, detail := range []string{"", "x < y", `"q"`} {
		f := &Fault{Code: "c&", Detail: detail}
		if got, want := f.XML(), refFault(f.Code, f.Detail).XML(); got != want {
			t.Errorf("fault:\n got  %s\n want %s", got, want)
		}
	}
	start := xmldom.NewElement("startNegotiationRequest").SetAttr("strategy", "standard").SetAttr("resource", `R"&`)
	if got := startRequestXML("standard", `R"&`); got != start.XML() {
		t.Errorf("start request:\n got  %s\n want %s", got, start.XML())
	}
	resp := xmldom.NewElement("startNegotiationResponse").SetAttr("negotiation", "abc")
	if got := startResponseXML("abc"); got != resp.XML() {
		t.Errorf("start response:\n got  %s\n want %s", got, resp.XML())
	}
}
