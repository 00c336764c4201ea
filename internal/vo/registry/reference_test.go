package registry

import (
	"fmt"
	"reflect"
	"testing"

	"trustvo/internal/xmldom"
)

// refDOM is the tree builder Encode replaced, kept as the reference
// FuzzDecodeDescription checks Encode against.
func refDOM(d *Description) *xmldom.Node {
	root := xmldom.NewElement("serviceDescription").
		SetAttr("provider", d.Provider).
		SetAttr("service", d.Service)
	if d.Endpoint != "" {
		root.SetAttr("endpoint", d.Endpoint)
	}
	if d.Quality != "" {
		root.SetAttr("quality", d.Quality)
	}
	for _, c := range d.Capabilities {
		root.AppendChild(xmldom.NewElement("capability").SetAttr("name", c))
	}
	return root
}

// refFromDOM is the tree walk DecodeDescription replaced, kept as the
// reference FuzzDecodeDescription diffs it against.
func refFromDOM(root *xmldom.Node) (*Description, error) {
	if root.Name != "serviceDescription" {
		return nil, fmt.Errorf("registry: root element <%s>", root.Name)
	}
	d := &Description{
		Provider: root.AttrOr("provider", ""),
		Service:  root.AttrOr("service", ""),
		Endpoint: root.AttrOr("endpoint", ""),
		Quality:  root.AttrOr("quality", ""),
	}
	for _, c := range root.Childs("capability") {
		d.Capabilities = append(d.Capabilities, c.AttrOr("name", ""))
	}
	return d, d.Validate()
}

// FuzzDecodeDescription decodes any document through DecodeDescription,
// over its bytes, and through the old tree walk over its parsed tree:
// the verdict, the error and the fields must agree, a document that does
// not parse must not decode, and an accepted description must encode to
// the bytes the old builder writes.
func FuzzDecodeDescription(f *testing.F) {
	for _, seed := range []string{
		`<serviceDescription endpoint="http://h/tn?a=1&amp;b=2" provider="P &amp; Co" quality="q" service="S"><capability name="a"/><capability name="b &lt;c&gt;"/></serviceDescription>`,
		`<serviceDescription provider="P" service="S"/>`,
		`<serviceDescription provider="P" service=""/>`,
		`<serviceDescription service="S"><capability/><x><capability name="deep"/></x>text<capability name="c">t</capability></serviceDescription>`,
		`<descriptions><serviceDescription provider="P" service="S"/></descriptions>`,
		`<serviceDescription provider="P" service="S"><capability name="a"></serviceDescription>`,
		``,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		got, err := decodeString(doc)
		root, perr := xmldom.ParseString(doc)
		if perr != nil {
			if err == nil {
				t.Fatalf("decoded %q, which does not parse (%v), to %+v", doc, perr, got)
			}
			return
		}
		want, werr := refFromDOM(root)
		if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("decode of %q = %+v, %v; the tree walk gives %+v, %v", doc, got, err, want, werr)
		}
		if err == nil {
			if enc, ref := xmldom.String(got.Encode), refDOM(got).XML(); enc != ref {
				t.Fatalf("Encode of %+v = %s, the old builder writes %s", got, enc, ref)
			}
		}
	})
}
