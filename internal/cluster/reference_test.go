package cluster

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"trustvo/internal/wsrpc"
	"trustvo/internal/xmldom"
)

// The builders and walks below are how the cluster wrote and read its
// replication documents before each got one Writer layout and one
// Reader decode. FuzzReplicationCodec diffs the layouts against them.
// The walks fail closed where the decodes now do: an epoch or a
// position that is missing or not a decimal count, which the old walks
// read as 0 or as their prefix.

func refStatusDOM(s Status) *xmldom.Node {
	return xmldom.NewElement("clusterStatus").
		SetAttr("node", s.Node).
		SetAttr("epoch", strconv.FormatUint(s.Epoch, 10)).
		SetAttr("leader", strconv.FormatBool(s.Leader)).
		SetAttr("pos", strconv.FormatUint(s.Pos, 10)).
		SetAttr("applied", strconv.FormatUint(s.Applied, 10)).
		SetAttr("lineage", strconv.FormatUint(s.Lineage, 10))
}

func refReplicatedDOM(rep replicated) *xmldom.Node {
	return xmldom.NewElement("replicated").
		SetAttr("applied", strconv.FormatUint(rep.applied, 10)).
		SetAttr("epoch", strconv.FormatUint(rep.epoch, 10)).
		SetAttr("lineage", strconv.FormatUint(rep.lineage, 10))
}

func refReplicateDOM(epoch, from uint64, count int, frames []byte) *xmldom.Node {
	req := xmldom.NewElement("replicate").
		SetAttr("epoch", strconv.FormatUint(epoch, 10)).
		SetAttr("from", strconv.FormatUint(from, 10)).
		SetAttr("count", strconv.Itoa(count))
	req.AppendChild(xmldom.NewText(base64.StdEncoding.EncodeToString(frames)))
	return req
}

func refCatchupDOM(epoch, pos uint64, frames []byte) *xmldom.Node {
	req := xmldom.NewElement("catchup").
		SetAttr("epoch", strconv.FormatUint(epoch, 10)).
		SetAttr("pos", strconv.FormatUint(pos, 10))
	req.AppendChild(xmldom.NewText(base64.StdEncoding.EncodeToString(frames)))
	return req
}

// refCount reads attribute name of el as a decimal count.
func refCount(el *xmldom.Node, name string) (uint64, error) {
	raw := el.AttrOr(name, "")
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("cluster: <%s> %s %q is not a count", el.Name, name, raw)
	}
	return v, nil
}

// refCounts reads the named attributes of el into dst, in order, and
// returns the first error.
func refCounts(el *xmldom.Node, names []string, dst ...*uint64) error {
	var first error
	for i, name := range names {
		v, err := refCount(el, name)
		if err != nil && first == nil {
			first = err
		}
		*dst[i] = v
	}
	return first
}

func refStatus(root *xmldom.Node) (Status, error) {
	if root.Name != "clusterStatus" {
		return Status{}, fmt.Errorf("cluster: unexpected status response <%s>", root.Name)
	}
	s := Status{Node: root.AttrOr("node", ""), Leader: root.AttrOr("leader", "") == "true"}
	if err := refCounts(root, []string{"epoch", "pos", "applied", "lineage"}, &s.Epoch, &s.Pos, &s.Applied, &s.Lineage); err != nil {
		return Status{}, err
	}
	return s, nil
}

func refReplicated(root *xmldom.Node) (replicated, error) {
	if root.Name != "replicated" {
		return replicated{}, fmt.Errorf("cluster: unexpected replication response <%s>", root.Name)
	}
	var rep replicated
	if err := refCounts(root, []string{"applied", "epoch", "lineage"}, &rep.applied, &rep.epoch, &rep.lineage); err != nil {
		return replicated{}, err
	}
	return rep, nil
}

// refFrame is what handleApply read of a replication body's tree.
func refFrame(root *xmldom.Node, want, at string) (frame, error) {
	if root.Name != want {
		return frame{}, fmt.Errorf("expected <%s>, got <%s>", want, root.Name)
	}
	f := frame{frames: root.Text()}
	if err := refCounts(root, []string{"epoch", at}, &f.epoch, &f.pos); err != nil {
		return frame{}, err
	}
	return f, nil
}

// readReply reads a whole reply as CallBody does, through decode at its
// root start tag; the reply's syntax error wins.
func readReply(doc string, decode func(*xmldom.Reader) error) error {
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

// FuzzReplicationCodec checks each replication document. Any document
// is decoded as a status reply, a <replicated> reply, a window and a
// snapshot, over its bytes by the one decoder and over its parsed tree
// by the walk it replaced: the verdict, the error and the decoded fields
// must agree, and a document that does not parse must not decode. Then
// documents written from the fuzzed fields must equal the old builders'
// bytes.
func FuzzReplicationCodec(f *testing.F) {
	f.Add(`<clusterStatus applied="11" epoch="1" leader="true" lineage="1" node="n1" pos="11"/>`, "n<1>", uint64(1), uint64(2), uint64(3), 4, []byte("TV"))
	f.Add(`<replicated applied="3" epoch="1" lineage="1"/>`, "", uint64(0), uint64(0), uint64(0), 0, []byte{})
	f.Add(`<replicate count="2" epoch="1" from="9">VFZQAAMA<!-- c -->BwAAABpk</replicate>`, "a&b", uint64(1<<63), uint64(9), uint64(18446744073709551615), -1, []byte{0, 1, 2})
	f.Add(`<catchup epoch="1" pos="9"><x>VFZQ</x>AAMA</catchup>`, `"`, uint64(5), uint64(0), uint64(7), 1, []byte("snapshot"))
	f.Add(`<catchup epoch="01" pos=" 9"></catchup>`, "", uint64(0), uint64(0), uint64(0), 0, []byte(nil))
	f.Add(`<replicated applied="12abc" epoch="-1"/>`, "", uint64(0), uint64(0), uint64(0), 0, []byte(nil))
	f.Fuzz(func(t *testing.T, doc, name string, x, y, z uint64, count int, frames []byte) {
		tree, perr := xmldom.ParseString(doc)
		check := func(layout string, err error, ref func() error, got, want any) {
			t.Helper()
			if perr != nil {
				if err == nil {
					t.Fatalf("%s: decoded %q, which does not parse", layout, doc)
				}
				return
			}
			werr := ref()
			if fmt.Sprint(err) != fmt.Sprint(werr) || err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s decode of %q = %+v, %v; the tree walk gives %+v, %v", layout, doc, got, err, want, werr)
			}
		}
		var st, refSt Status
		check("clusterStatus", readReply(doc, func(r *xmldom.Reader) (err error) {
			st, err = decodeStatus(r)
			return err
		}), func() (err error) {
			refSt, err = refStatus(tree)
			return err
		}, &st, &refSt)
		var rep, refRep replicated
		check("replicated", readReply(doc, func(r *xmldom.Reader) (err error) {
			rep, err = decodeReplicated(r)
			return err
		}), func() (err error) {
			refRep, err = refReplicated(tree)
			return err
		}, &rep, &refRep)
		for _, kind := range [][2]string{{"replicate", "from"}, {"catchup", "pos"}} {
			fr, fperr, err := decodeFrame(doc, kind[0], kind[1])
			if (fperr != nil) != (perr != nil) {
				t.Fatalf("%s: syntax error %v over the bytes, %v over the tree, of %q", kind[0], fperr, perr, doc)
			}
			if fperr != nil {
				err = fperr
			}
			var refFr frame
			check(kind[0], err, func() (err error) {
				refFr, err = refFrame(tree, kind[0], kind[1])
				return err
			}, &fr, &refFr)
		}

		// Written from the fuzzed fields.
		same := func(layout, got, want string) {
			t.Helper()
			if got != want {
				t.Fatalf("%s writes %s, the old builder %s", layout, got, want)
			}
		}
		s := Status{Node: name, Epoch: x, Leader: x%2 == 1, Pos: y, Applied: z, Lineage: x ^ y}
		same("clusterStatus", xmldom.String(s.encode), refStatusDOM(s).XML())
		r := replicated{applied: x, epoch: y, lineage: z}
		same("replicated", xmldom.String(r.encode), refReplicatedDOM(r).XML())
		same("replicate", xmldom.String(func(w *xmldom.Writer) { encodeReplicate(w, x, y, count, frames) }), refReplicateDOM(x, y, count, frames).XML())
		same("catchup", xmldom.String(func(w *xmldom.Writer) { encodeCatchup(w, x, z, frames) }), refCatchupDOM(x, z, frames).XML())
	})
}

// TestFetchStatus reads a node's status through FetchStatus: a live
// node's as it reports it, and a stub's whose reply is not a
// <clusterStatus> or whose numbers are malformed as an error.
func TestFetchStatus(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	n := c.addNode(`n1 & "x"`)
	c.setLeader(`n1 & "x"`)
	if err := n.db.PutXML("chaos", "k", chaosDoc(1)); err != nil {
		t.Fatal(err)
	}
	got, err := FetchStatus(bg, &wsrpc.Transport{}, n.srv.URL)
	if want := n.node.status(); err != nil || got != want || got.Pos != 1 || !got.Leader {
		t.Fatalf("FetchStatus = %+v, %v; want %+v", got, err, want)
	}
	for _, reply := range []string{
		`<status applied="0" epoch="0" leader="false" lineage="0" node="s" pos="0"/>`,
		`<clusterStatus applied="0" epoch="0" leader="false" lineage="0" node="s"/>`,
		`<clusterStatus applied="0x1" epoch="0" leader="false" lineage="0" node="s" pos="0"/>`,
		`<clusterStatus applied="0" epoch="1e3" leader="true" lineage="0" node="s" pos="0"/>`,
	} {
		stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			wsrpc.SetContentType(w.Header())
			w.Write([]byte(reply))
		}))
		if got, err := FetchStatus(bg, &wsrpc.Transport{}, stub.URL); err == nil {
			t.Errorf("FetchStatus of %s = %+v, nil", reply, got)
		}
		stub.Close()
	}
}
