package wsrpc

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"trustvo/internal/vo"
	"trustvo/internal/xmldom"
)

// The builders and walks below are how the toolkit wrote its replies
// and the member client read them before each got one Writer layout and
// one Reader decode. FuzzToolkitCodec diffs the layouts against them.
// The walks fail closed where the decodes now do: a member count that
// is not a count, a score that is not a number, an audit time that is
// not RFC 3339.

func refMembersDOM(members []*vo.Member) *xmldom.Node {
	out := xmldom.NewElement("members")
	for _, m := range members {
		out.AppendChild(xmldom.NewElement("member").
			SetAttr("name", m.Name).
			SetAttr("role", m.Role))
	}
	return out
}

func refVOStatusDOM(name, phase string, members, violations int) *xmldom.Node {
	return xmldom.NewElement("voStatus").
		SetAttr("name", name).
		SetAttr("phase", phase).
		SetAttr("members", strconv.Itoa(members)).
		SetAttr("violations", strconv.Itoa(violations))
}

func refAuditDOM(entries []vo.AuditEntry) *xmldom.Node {
	out := xmldom.NewElement("audit")
	for _, e := range entries {
		el := xmldom.NewElement("entry").
			SetAttr("member", e.Member).
			SetAttr("operation", e.Operation).
			SetAttr("allowed", boolStr(e.Allowed)).
			SetAttr("at", e.At.UTC().Format(time.RFC3339))
		if e.Detail != "" {
			el.SetAttr("detail", e.Detail)
		}
		out.AppendChild(el)
	}
	return out
}

func refReputationDOM(member string, score float64) *xmldom.Node {
	return xmldom.NewElement("reputation").
		SetAttr("member", member).
		SetAttr("score", strconv.FormatFloat(score, 'f', 4, 64))
}

// refRoot is the root check of the old MemberClient.call.
func refRoot(root *xmldom.Node, want string) error {
	if root.Name != want {
		return fmt.Errorf("wsrpc: expected <%s> response, got <%s>", want, root.Name)
	}
	return nil
}

func refVOStatus(root *xmldom.Node) (string, int, error) {
	if err := refRoot(root, "voStatus"); err != nil {
		return "", 0, err
	}
	count := root.AttrOr("members", "")
	members, err := strconv.Atoi(count)
	if err != nil || members < 0 {
		return "", 0, fmt.Errorf("wsrpc: <voStatus> members %q is not a count", count)
	}
	return root.AttrOr("phase", ""), members, nil
}

func refMembers(root *xmldom.Node) (map[string]string, error) {
	if err := refRoot(root, "members"); err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for _, m := range root.Childs("member") {
		out[m.AttrOr("name", "")] = m.AttrOr("role", "")
	}
	return out, nil
}

func refAudit(root *xmldom.Node) ([]AuditEntry, error) {
	if err := refRoot(root, "audit"); err != nil {
		return nil, err
	}
	var out []AuditEntry
	for _, e := range root.Childs("entry") {
		at, err := time.Parse(time.RFC3339, e.AttrOr("at", ""))
		if err != nil {
			return nil, fmt.Errorf("wsrpc: <audit> entry at %q is not an RFC 3339 time", e.AttrOr("at", ""))
		}
		out = append(out, AuditEntry{
			Member:    e.AttrOr("member", ""),
			Operation: e.AttrOr("operation", ""),
			Allowed:   e.AttrOr("allowed", "") == "true",
			Detail:    e.AttrOr("detail", ""),
			At:        at,
		})
	}
	return out, nil
}

func refReputation(root *xmldom.Node) (float64, error) {
	if err := refRoot(root, "reputation"); err != nil {
		return 0, err
	}
	score := root.AttrOr("score", "")
	f, err := strconv.ParseFloat(score, 64)
	if err != nil {
		return 0, fmt.Errorf("wsrpc: <reputation> score %q is not a number", score)
	}
	return f, nil
}

// decodeReply reads a whole reply as CallBody does, through decode at
// its root start tag; the reply's syntax error wins.
func decodeReply(doc string, decode func(*xmldom.Reader) error) error {
	r := xmldom.NewReader(doc)
	var err error
	if r.Child(0) {
		err = decode(r)
	}
	if cerr := r.Close(); cerr != nil {
		return cerr
	}
	return err
}

// FuzzToolkitCodec checks each toolkit reply the member client decodes.
// Any document is decoded as each reply, over its bytes by the member
// client's decode, and over its parsed tree by the walk it replaced:
// the verdict, the error and the decoded fields must agree, and a
// document that does not parse must not decode. Then replies written
// from the fuzzed fields must equal the old builders' bytes.
func FuzzToolkitCodec(f *testing.F) {
	f.Add(`<voStatus members="2" name="VO" phase="formation" violations="0"/>`, "a", "b&<c>", int64(3), 0.25)
	f.Add(`<members><member name="a" role="r"/><x/><member name="b"/>t<member name="a" role="s"/></members>`, "", `"q"`, int64(0), 1.0)
	f.Add(`<audit><entry allowed="true" at="2030-01-02T03:04:05Z" member="m" operation="op"/><entry allowed="no" at="2030-01-02T03:04:05+02:00" detail="d"/></audit>`, "m", "op", int64(1893553445), 0.5)
	f.Add(`<audit><entry at="yesterday"/></audit>`, "m", "", int64(-1), 0.0)
	f.Add(`<reputation member="m" score="0.3098"/>`, "m", "", int64(1), 0.30975)
	f.Add(`<reputation score="1e3"/><!-- -->`, "m", "", int64(1), -1.5)
	f.Add(`<voStatus members="12abc"/>`, "", "", int64(-7), 2.0)
	f.Fuzz(func(t *testing.T, doc, a, b string, n int64, x float64) {
		tree, perr := xmldom.ParseString(doc)
		check := func(layout string, decode func(*xmldom.Reader) error, ref func(*xmldom.Node) error, got, want any) {
			t.Helper()
			err := decodeReply(doc, decode)
			if perr != nil {
				if err == nil {
					t.Fatalf("%s: decoded %q, which does not parse", layout, doc)
				}
				return
			}
			werr := ref(tree)
			if fmt.Sprint(err) != fmt.Sprint(werr) || err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s decode of %q = %v, %v; the tree walk gives %v, %v", layout, doc, got, err, want, werr)
			}
		}
		var phase, refPhase string
		var count, refCount int
		check("voStatus", func(r *xmldom.Reader) (err error) {
			phase, count, err = decodeVOStatus(r)
			return err
		}, func(root *xmldom.Node) (err error) {
			refPhase, refCount, err = refVOStatus(root)
			return err
		}, []any{&phase, &count}, []any{&refPhase, &refCount})
		var members, refMem map[string]string
		check("members", func(r *xmldom.Reader) (err error) {
			members, err = decodeMembers(r)
			return err
		}, func(root *xmldom.Node) (err error) {
			refMem, err = refMembers(root)
			return err
		}, &members, &refMem)
		var audit, refAud []AuditEntry
		check("audit", func(r *xmldom.Reader) (err error) {
			audit, err = decodeAudit(r)
			return err
		}, func(root *xmldom.Node) (err error) {
			refAud, err = refAudit(root)
			return err
		}, &audit, &refAud)
		var score, refScore float64
		check("reputation", func(r *xmldom.Reader) (err error) {
			score, err = decodeReputation(r)
			return err
		}, func(root *xmldom.Node) (err error) {
			refScore, err = refReputation(root)
			return err
		}, &score, &refScore)

		// Written from the fuzzed fields.
		same := func(layout, got, want string) {
			t.Helper()
			if got != want {
				t.Fatalf("%s writes %s, the old builder %s", layout, got, want)
			}
		}
		mems := []*vo.Member{{Name: a, Role: b}, {Name: b, Role: a}}
		same("members", xmldom.String(func(w *xmldom.Writer) { encodeMembers(w, mems) }), refMembersDOM(mems).XML())
		same("voStatus", xmldom.String(func(w *xmldom.Writer) { encodeVOStatus(w, a, b, int(n), int(n>>8)) }),
			refVOStatusDOM(a, b, int(n), int(n>>8)).XML())
		at := time.Unix(n%253402300800, 0) // within years 1–9999, as RFC 3339 writes them
		entries := []vo.AuditEntry{{Member: a, Operation: b, Allowed: n%2 == 0, Detail: a + b, At: at}, {Member: b, At: at.Add(time.Hour)}}
		same("audit", xmldom.String(func(w *xmldom.Writer) { encodeAudit(w, entries) }), refAuditDOM(entries).XML())
		same("reputation", xmldom.String(func(w *xmldom.Writer) { encodeReputation(w, a, x) }), refReputationDOM(a, x).XML())
	})
}
